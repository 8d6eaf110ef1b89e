"""Per-node score tables, and the writer of every stage output CSV.

A stage output CSV is a `# config_hash=...` line, a header and one comma-joined
line per row, which `write_rows` writes from chunks of `corpus.text_rows`
text; no stage reads one back.  `float_text` gives every float's text, at 17
significant digits, which give back its bits.  The scores of one aspect at
one snapshot month are two arrays over node positions: `values[i]` is node
i's score where `scored[i]` holds, and 0 elsewhere.  Stages stack them as
window month x aspect (in `ASPECTS` order) x node arrays.  A score CSV,
`tree_code, level, aspect, month, value`, has one row per scored node in
position order (which is code order); its writer is the only place where
score codes meet positions.  It formats each distinct value of a file once.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .corpus import text_rows
from .hierarchy import Hierarchy
from .mirror import write_file

ASPECTS = ("disruptiveness", "influence", "informativeness", "usefulness")
RELEVANCE = "relevance"
SCORES_HEADER = "tree_code,level,aspect,month,value"


def float_text(values: np.ndarray) -> np.ndarray:
    """The `S` array of the text of each of `values` at 17 significant digits."""
    return np.array([format(v, ".17g") for v in values.tolist()], dtype="S")


def write_rows(path: Path, header: str, rows: list[bytes], config_hash: str) -> None:
    """Write a stage output CSV, making its directory if need be: the config
    hash comment, `header`, then the chunks of lines `rows`, in order."""
    write_file(path, f"# config_hash={config_hash}\n{header}\n".encode(), *rows)


def write_scores_csv(h: Hierarchy, paths: list[Path], window: list[str], values: np.ndarray,
                     scored: np.ndarray, config_hash: str) -> None:
    """Write the window month x aspect x node scores to `paths`, one file
    per (month, aspect), month-major in `ASPECTS` order.  A file's values are
    told apart by their bits, not by `==`, so -0.0 and 0.0 keep their texts."""
    codes = np.array(h.codes, dtype="S")
    for path, (k, s) in zip(paths, np.ndindex(values.shape[:2])):
        at = np.flatnonzero(scored[k, s])
        bits, which = np.unique(values[k, s].view(np.int64)[at], return_inverse=True)
        rows = text_rows(codes[at], b",", h.level[at], f",{ASPECTS[s]},{window[k]},".encode(),
                         float_text(bits.view(np.float64))[which], b"\n")
        write_rows(path, SCORES_HEADER, [rows], config_hash)
