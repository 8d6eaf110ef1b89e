"""Ranking, reciprocal-rank fusion, and rank trajectories.

Higher raw score always means better (rank 1) for every aspect; ties break
on ascending tree code so ranks are a dense 1..N permutation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .hierarchy import level_of

DEFAULT_RRF_K = 60


@dataclass
class RelevanceRanking:
    month: str
    rrf: dict[str, float]
    rank: dict[str, int]
    scope: str = "global"


def rank_by_aspect(
    values: Mapping[str, float], scope: Iterable[str] | None = None
) -> dict[str, int]:
    """Dense ordinal ranks, 1 = largest value, ties by ascending tree code."""
    if scope is None:
        keys = list(values)
    else:
        keys = [code for code in scope if code in values]
    ordered = sorted(keys, key=lambda code: (-values[code], code))
    return {code: position for position, code in enumerate(ordered, start=1)}


def rrf_fuse(
    aspect_ranks: Mapping[str, Mapping[str, int]],
    k: int = DEFAULT_RRF_K,
    month: str = "",
    scope: str = "global",
) -> RelevanceRanking:
    """Fuse per-aspect rank tables: rrf(d) = sum over aspects of 1/(k + rank).

    The fused domain is the union of ranked nodes; a node absent from one
    aspect's table simply contributes nothing for that aspect.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    domain: set[str] = set()
    for ranks in aspect_ranks.values():
        domain.update(ranks)
    rrf: dict[str, float] = {}
    for code in sorted(domain):
        total = 0.0
        for aspect in sorted(aspect_ranks):
            rank = aspect_ranks[aspect].get(code)
            if rank is not None:
                total += 1.0 / (k + rank)
        rrf[code] = total
    return RelevanceRanking(month=month, rrf=rrf, rank=rank_by_aspect(rrf), scope=scope)


def per_level_ranking(ranking: RelevanceRanking, level: int) -> RelevanceRanking:
    """Re-rank the fused values within one hierarchy level."""
    sliced = {c: v for c, v in ranking.rrf.items() if level_of(c) == level}
    return RelevanceRanking(
        month=ranking.month,
        rrf=sliced,
        rank=rank_by_aspect(sliced),
        scope=f"level-{level}",
    )


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
