"""Per-node score tables, and the reader of every stage output CSV.

One AspectScores = one aspect at one snapshot month: `values[i]` is node i's
score where `scored[i]` holds, and 0 elsewhere.  The CSV layout is
`tree_code, level, aspect, month, value`, one row per scored node in
position order (which is code order), values at 17 significant digits; a
`# config_hash=...` comment line may precede the header.  The CSV writer
and reader are the only places where score codes meet positions.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, TextIO

import numpy as np

from .hierarchy import Hierarchy

ASPECTS = ("disruptiveness", "influence", "informativeness", "usefulness")
RELEVANCE = "relevance"
SCORES_HEADER = "tree_code,level,aspect,month,value"


@dataclass
class AspectScores:
    aspect: str
    month: str
    values: np.ndarray  # float64 by node position
    scored: np.ndarray  # bool by node position


def read_rows(path: Path, header: str, parse: Callable) -> list:
    """`parse(*fields)` of each row of a stage output CSV, skipping blank,
    `#` and `header` lines.  A row with a field count other than the
    header's, or one `parse` rejects, raises a ValueError naming `path` and
    the row's 1-based line."""
    width = header.count(",") + 1
    rows = []
    with path.open() as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#") or line == header:
                continue
            fields = line.split(",")
            try:
                if len(fields) != width:
                    raise ValueError(f"expected {width} fields, got {len(fields)}")
                rows.append(parse(*fields))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return rows


def write_scores_csv(
    h: Hierarchy, scores: AspectScores, out: TextIO, config_hash: str | None = None
) -> None:
    if config_hash:
        out.write(f"# config_hash={config_hash}\n")
    out.write(SCORES_HEADER + "\n")
    values, levels = scores.values.tolist(), h.level.tolist()
    for i in np.flatnonzero(scores.scored).tolist():
        value = format(values[i], ".17g")
        out.write(f"{h.codes[i]},{levels[i]},{scores.aspect},{scores.month},{value}\n")


def read_scores_csv(h: Hierarchy, path: Path) -> AspectScores:
    """The scores written to `path`, laid out by position; a tree code
    outside `h`, or one given twice, is an error."""
    values, scored = np.zeros(len(h.codes)), np.zeros(len(h.codes), dtype=bool)

    def parse(code: str, _level: str, aspect: str, month: str, value: str):
        i = h.position.get(code)
        if i is None:
            raise ValueError(f"tree code {code} is not in the hierarchy")
        if scored[i]:
            raise ValueError(f"tree code {code} repeats an earlier row")
        values[i], scored[i] = float(value), True
        return aspect, month

    rows = read_rows(path, SCORES_HEADER, parse)
    aspect, month = rows[-1] if rows else ("", "")
    return AspectScores(aspect, month, values, scored)
