"""Information-theoretic relevance: per-level entropy terms and category utility.

Both metrics work on article-to-node mappings propagated up the tree: an
article that maps to a node also marks every ancestor of that node.

The mappings are article x node incidence rows on the hierarchy's positional
columns (`Hierarchy.incidence`).  One product with the ancestor closure,
`closed = incidence @ h.closure`, feeds both metrics: its column sums are the
propagated counts (`subtree_counts`, then `informativeness`), its non-zero
pattern the propagated incidence (`category_utility`).  Counts are exact
integers; the one float sum, sum_k p(k)^2 in category utility, adds one
article at a time in ascending id, so it keeps its bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .hierarchy import Hierarchy, level_of

INFORMATIVENESS_MODES = ("entropy-term", "surprisal")


@dataclass
class MappingCounts:
    """Subtree-propagated counts of article mappings per node and per level."""

    propagated: dict[str, int]
    level_totals: dict[int, int]


def subtree_counts(h: Hierarchy, closed: sparse.csr_matrix) -> MappingCounts:
    """Counts from the closure product `closed = incidence @ h.closure`.

    Entry (a, c) of `closed` counts the direct nodes of article a at or
    below node c, so an article mapping to k distinct nodes contributes k.
    """
    propagated = np.asarray(closed.sum(axis=0)).ravel()
    level_totals = np.bincount(h.level, weights=propagated)
    return MappingCounts(
        propagated=dict(zip(h.codes, propagated.tolist())),
        level_totals={lvl: int(t) for lvl, t in enumerate(level_totals.tolist()) if lvl},
    )


def informativeness(counts: MappingCounts, mode: str = "entropy-term") -> dict[str, float]:
    """Score each node by its share p of its level's propagated mappings.

    entropy-term: -p * log2(p), the node's summand in the level's Shannon
    entropy (0 when p is 0).  surprisal: -log2(p), unscored when p is 0.
    Nodes on levels with no mappings are left unscored.
    """
    if mode not in INFORMATIVENESS_MODES:
        raise ValueError(f"unknown informativeness mode {mode!r}")
    values: dict[str, float] = {}
    for code in sorted(counts.propagated):
        total = counts.level_totals.get(level_of(code), 0)
        if total <= 0:
            continue
        p = counts.propagated[code] / total
        if mode == "entropy-term":
            values[code] = -p * math.log2(p) if p > 0 else 0.0
        elif p > 0:
            values[code] = -math.log2(p)
    return values


def category_utility(closed: sparse.csr_matrix, n_nodes: int) -> np.ndarray:
    """Usefulness of each column of an article x node matrix whose non-zero
    pattern is the propagated incidence; rows are in ascending article id.

    With row mass share p(c), per-article column mean p(k), and the binary
    cell as the conditional feature probability, category utility reduces
    to p(c) * (|row(c)| - sum_k p(k)^2) over articles that mark some node.
    """
    row_len = closed.getnnz(axis=0)  # |row(c)|: articles marking node c
    total_mass = int(row_len.sum())
    if total_mass == 0:
        return np.zeros(closed.shape[1], dtype=np.float64)
    # Python's sum over ascending articles, skipping empty columns, keeps
    # the constant term bit-identical run to run.
    sum_pk_sq = sum((k / n_nodes) ** 2 for k in closed.getnnz(axis=1).tolist() if k)
    return row_len / total_mass * (row_len - sum_pk_sq)
