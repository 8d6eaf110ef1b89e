"""Per-node score tables, and the writer and reader of every stage output CSV.

A stage output CSV is a `# config_hash=...` line, a header and one comma-joined
line per row: `write_rows` writes it and `read_rows` reads it.  The scores of
one aspect at one snapshot month are two arrays over node positions:
`values[i]` is node i's score where `scored[i]` holds, and 0 elsewhere.
Stages stack them as window month x aspect (in `ASPECTS` order) x node arrays.
A score CSV, `tree_code, level, aspect, month, value`, has one row per scored
node in position order (which is code order), values at 17 significant digits;
its writer and reader are the only places where score codes meet positions.
The writer formats each distinct value of a file once, as most values repeat.
"""
from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .hierarchy import Hierarchy
from .mirror import write_file

ASPECTS = ("disruptiveness", "influence", "informativeness", "usefulness")
RELEVANCE = "relevance"
SCORES_HEADER = "tree_code,level,aspect,month,value"


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


def write_rows(path: Path, header: str, rows: Iterable[str], config_hash: str) -> None:
    """Write the stage output CSV that `read_rows` reads, making its directory
    if need be: the config hash comment, `header`, then the comma-joined `rows`."""
    write_file(path, "\n".join([f"# config_hash={config_hash}", header, *rows, ""]).encode())


def write_scores_csv(
    h: Hierarchy,
    paths: list[Path],
    window: list[str],
    values: np.ndarray,
    scored: np.ndarray,
    config_hash: str,
) -> None:
    """Write the window month x aspect x node scores to `paths`, one file
    per (month, aspect), month-major in `ASPECTS` order.  A file's values are
    told apart by their bits, not by `==`, so -0.0 and 0.0 keep their texts."""
    prefix = [f"{code},{level}," for code, level in zip(h.codes, h.level.tolist())]
    for path, (k, s) in zip(paths, np.ndindex(values.shape[:2])):
        at = np.flatnonzero(scored[k, s])
        bits, which = np.unique(values[k, s].view(np.int64)[at], return_inverse=True)
        text = [format(v, ".17g") for v in bits.view(np.float64).tolist()]
        table = f"{ASPECTS[s]},{window[k]},"
        rows = [prefix[i] + table + text[j] for i, j in zip(at.tolist(), which.tolist())]
        write_rows(path, SCORES_HEADER, rows, config_hash)


def read_scores_csv(
    h: Hierarchy, path: Path, aspect: str, month: str
) -> tuple[np.ndarray, np.ndarray]:
    """The `aspect` scores of `month` written to `path`, as (values, scored)
    by position.  A row of another aspect or month, a tree code outside `h`
    or given twice, or a level other than the code's is an error."""
    values, scored = np.zeros(len(h.codes)), np.zeros(len(h.codes), dtype=bool)
    levels = h.level.tolist()

    def parse(code: str, level: str, row_aspect: str, row_month: str, value: str) -> None:
        i = h.position.get(code)
        if i is None:
            raise ValueError(f"tree code {code} is not in the hierarchy")
        if (row_aspect, row_month) != (aspect, month):
            raise ValueError(f"row of {row_aspect},{row_month} in the {aspect},{month} table")
        if level != str(levels[i]):
            raise ValueError(f"level {level} is not the level {levels[i]} of tree code {code}")
        if scored[i]:
            raise ValueError(f"tree code {code} repeats an earlier row")
        values[i], scored[i] = float(value), True

    read_rows(path, SCORES_HEADER, parse)
    return values, scored
