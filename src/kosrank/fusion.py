"""Ranking, reciprocal-rank fusion, and rank trajectories.

Every function works on vectors over the hierarchy's node positions, or on
months x nodes and years x nodes arrays of them.  Higher raw score always
means better (rank 1) for every aspect; ties break on ascending position,
which is tree-code order, so ranks are a dense 1..N permutation of the
ranked nodes, and 0 marks an unranked node.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

DEFAULT_RRF_K = 60


def rank_by_aspect(values: np.ndarray, scored: np.ndarray) -> np.ndarray:
    """Dense ordinal ranks of the scored positions, 1 = largest value, ties
    by ascending position; 0 where `scored` is unset."""
    ranked = np.flatnonzero(scored)
    order = ranked[np.argsort(-values[ranked], kind="stable")]
    rank = np.zeros(len(values), dtype=np.int64)
    rank[order] = np.arange(1, len(order) + 1)
    return rank


def rrf_fuse(ranks: Sequence[np.ndarray], k: int = DEFAULT_RRF_K) -> np.ndarray:
    """Fuse per-aspect rank vectors: rrf = sum over aspects of 1/(k + rank).

    An unranked node (rank 0) gets nothing from that aspect, so rrf > 0
    exactly where some aspect ranks the node.  Terms are added one aspect at
    a time in the order of `ranks`, and adding 0.0 is exact.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    rrf = np.zeros(len(ranks[0]), dtype=np.float64)
    for rank in ranks:
        rrf += np.where(rank > 0, 1.0 / (k + rank), 0.0)
    return rrf


def rank_trend_slope(yearly: np.ndarray) -> tuple[np.ndarray, ...]:
    """For the nodes ranked in two or more years of a years x nodes mean-rank
    array (0 = unranked): their positions, their slopes (last - first) /
    (count - 1) over the ranked years, negative = climbing the ranking, and
    the rows of their first and last ranked years."""
    ranked = yearly > 0
    count = ranked.sum(axis=0)
    nodes = np.flatnonzero(count >= 2)
    first = ranked[:, nodes].argmax(axis=0)
    last = len(yearly) - 1 - ranked[::-1, nodes].argmax(axis=0)
    return nodes, (yearly[last, nodes] - yearly[first, nodes]) / (count[nodes] - 1), first, last


def mean_ranks(ranks: np.ndarray) -> np.ndarray:
    """Per-node mean of a months x nodes rank array over the months that rank
    the node, 0 if none does.  The sums are integers below 2**53, so the
    division rounds once, as Python's `int / int` does."""
    counts = (ranks > 0).sum(axis=0)
    return np.divide(ranks.sum(axis=0), counts, out=np.zeros(ranks.shape[1]), where=counts > 0)


def top_k(means: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k smallest nonzero `means`, smallest first, ties by
    position; pass `-means` for the k largest."""
    ranked = np.flatnonzero(means)
    return ranked[np.argsort(means[ranked], kind="stable")][:k]
