"""Ranking, reciprocal-rank fusion, and rank trajectories.

`rank_by_aspect` and `rrf_fuse` work on vectors over the hierarchy's node
positions.  Higher raw score always means better (rank 1) for every aspect;
ties break on ascending position, which is tree-code order, so ranks are a
dense 1..N permutation of the ranked nodes, and 0 marks an unranked node.
The trajectory helpers work on the code-keyed rank tables that `trend` and
`export-plots` read back from the fused rankings.
"""
from __future__ import annotations

from typing import Iterable, Mapping, Sequence

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


def rank_trend_slope(rank_series: Sequence[float]) -> float:
    """Mean of consecutive rank differences; negative = climbing the ranking."""
    if len(rank_series) < 2:
        raise ValueError("need at least two rank observations")
    return (rank_series[-1] - rank_series[0]) / (len(rank_series) - 1)


def mean_ranks(rankings: Iterable[Mapping[str, int]]) -> dict[str, float]:
    """Per-node mean rank over the rankings in which the node appears."""
    totals: dict[str, int] = {}
    counts: dict[str, int] = {}
    for ranks in rankings:
        for code, rank in ranks.items():
            totals[code] = totals.get(code, 0) + rank
            counts[code] = counts.get(code, 0) + 1
    return {code: totals[code] / counts[code] for code in totals}


def top_k_by_mean_rank(means: Mapping[str, float], k: int) -> list[str]:
    """Best average rank first; ties break on tree code."""
    return [c for c, _ in sorted(means.items(), key=lambda kv: (kv[1], kv[0]))][:k]


def bottom_k_by_mean_rank(means: Mapping[str, float], k: int) -> list[str]:
    """Worst average rank first; ties break on tree code."""
    return [c for c, _ in sorted(means.items(), key=lambda kv: (-kv[1], kv[0]))][:k]
