"""Per-node score tables, and the writer of every stage output CSV.

A stage output CSV is a `# config_hash=...` line, a header and one comma-joined
line per row, which `write_rows` writes; no stage reads one back.  The scores
of one aspect at one snapshot month are two arrays over node positions:
`values[i]` is node i's score where `scored[i]` holds, and 0 elsewhere.
Stages stack them as window month x aspect (in `ASPECTS` order) x node arrays.
A score CSV, `tree_code, level, aspect, month, value`, has one row per scored
node in position order (which is code order), values at 17 significant digits,
so that the text gives back every value's bits; its writer is the only place
where score codes meet positions.  The writer formats each distinct value of a
file once, as most values repeat.
"""
from __future__ import annotations

from pathlib import Path
from typing import Iterable

import numpy as np

from .hierarchy import Hierarchy
from .mirror import write_file

ASPECTS = ("disruptiveness", "influence", "informativeness", "usefulness")
RELEVANCE = "relevance"
SCORES_HEADER = "tree_code,level,aspect,month,value"


def write_rows(path: Path, header: str, rows: Iterable[str], config_hash: str) -> None:
    """Write a stage output CSV, making its directory if need be: the config
    hash comment, `header`, then the comma-joined `rows`."""
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
