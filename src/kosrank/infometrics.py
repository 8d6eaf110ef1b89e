"""Information-theoretic relevance: per-level entropy terms and category utility.

Both metrics work on article-to-node mappings propagated up the tree: an
article that maps to a node also marks every ancestor of that node.

The mappings are article x node incidence rows on the hierarchy's positional
columns (`Hierarchy.incidence`).  One product with the ancestor closure,
`closed = incidence @ h.closure`, feeds both metrics: its column sums are the
propagated counts (`subtree_counts`, then `informativeness`), its non-zero
pattern the propagated incidence (`category_utility`).  Every result is a
vector over the node positions; `informativeness` also returns which
positions it scored.  Counts are exact integers; the one float sum,
sum_k p(k)^2 in category utility, adds one article at a time in ascending
id, left to right, so it keeps its bits on every Python version.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import sparse

from .hierarchy import Hierarchy

INFORMATIVENESS_MODES = ("entropy-term", "surprisal")


def subtree_counts(closed: sparse.csr_matrix) -> np.ndarray:
    """Propagated mapping counts by node position, from the closure product
    `closed = incidence @ h.closure`.

    Entry (a, c) of `closed` counts the direct nodes of article a at or
    below node c, so an article mapping to k distinct nodes contributes k.
    """
    return np.asarray(closed.sum(axis=0)).ravel()


def informativeness(
    h: Hierarchy, counts: np.ndarray, mode: str = "entropy-term"
) -> tuple[np.ndarray, np.ndarray]:
    """Score each node by its share p of its level's propagated mappings.

    entropy-term: -p * log2(p), the node's summand in the level's Shannon
    entropy (0 when p is 0).  surprisal: -log2(p), unscored when p is 0.
    Nodes on levels with no mappings are left unscored.  Returns the values
    by position and the scored mask; values are 0 where it is unset.
    """
    if mode not in INFORMATIVENESS_MODES:
        raise ValueError(f"unknown informativeness mode {mode!r}")
    # Counts are integers far below 2**53, so the float totals and shares
    # are the exact sums and the correctly rounded quotients.
    totals = np.bincount(h.level, weights=counts)[h.level]
    scored = totals > 0
    p = np.divide(counts, totals, out=np.zeros(len(totals)), where=scored)
    live = p > 0
    if mode == "surprisal":
        scored &= live
    # math.log2, not np.log2: the two differ in the last bit on some inputs.
    logs = np.array([math.log2(x) for x in p[live].tolist()], dtype=np.float64)
    values = np.zeros(len(totals), dtype=np.float64)
    values[live] = -p[live] * logs if mode == "entropy-term" else -logs
    return values, scored


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
    # Left to right over ascending articles, as `acc += v` adds (3.12's `sum`
    # compensates); `** 2`, as np.square differs from it in the last bit at times.
    terms = [(k / n_nodes) ** 2 for k in closed.getnnz(axis=1).tolist() if k]
    sum_pk_sq = float(np.cumsum(terms)[-1])
    return row_len / total_mass * (row_len - sum_pk_sq)
