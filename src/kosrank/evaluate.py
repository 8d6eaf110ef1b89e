"""Cohort statistics: Mann-Whitney tests, evolution/retraction cohorts,
and aspect correlation matrices.

Descriptor-level scores are the sum of the descriptor's tree-node scores,
giving one observation per descriptor for the cohort tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np
from scipy.stats import rankdata

from .corpus import ArticleStore
from .hierarchy import Hierarchy
from .months import year_of

CHANGE_TYPES = ("description", "extension", "move", "removal")
EXACT_LIMIT = 10  # per-group size cap for the exact path


class EvaluationError(ValueError):
    pass


@dataclass(frozen=True)
class ChangeRecord:
    release: str
    descriptor_id: str
    change_type: str

    def __post_init__(self) -> None:
        if self.change_type not in CHANGE_TYPES:
            raise EvaluationError(f"unknown change type {self.change_type!r}")


@dataclass
class TestResult:
    u_statistic: float
    p_value: float
    n1: int
    n2: int
    method: str  # "exact" | "normal-approx"


def parse_changes(lines: Iterable[str]) -> list[ChangeRecord]:
    """Parse the `release \\t descriptor_id \\t change_type` TSV."""
    records: list[ChangeRecord] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise EvaluationError(
                f"line {lineno}: expected release, descriptor, change_type"
            )
        try:
            records.append(ChangeRecord(parts[0], parts[1], parts[2]))
        except EvaluationError as exc:
            raise EvaluationError(f"line {lineno}: {exc}") from None
    return records


def _exact_two_sided_p(n1: int, n2: int, u_observed: float) -> float:
    # No ties: count the assignments of pooled ranks 1..n1+n2 to group one
    # by rank sum; ways[k, s] is the number of k-subsets summing to s.
    n = n1 + n2
    top = n1 * (2 * n - n1 + 1) // 2  # largest rank sum of n1 ranks
    ways = np.zeros((n1 + 1, top + 1), dtype=np.int64)
    ways[0, 0] = 1
    for rank in range(1, n + 1):
        ways[1:, rank:] = ways[1:, rank:] + ways[:-1, : top + 1 - rank]
    u_of_sum = np.arange(top + 1) - n1 * (n1 + 1) / 2
    count = int(ways[n1, u_of_sum <= u_observed].sum())
    return min(1.0, 2.0 * count / math.comb(n, n1))


def mann_whitney(a: Sequence[float], b: Sequence[float]) -> TestResult:
    """Two-sided Mann-Whitney test with U = min(U1, U2).

    Exact p from the rank-sum distribution when both groups have at most
    10 observations and the pooled sample is tie-free; otherwise a normal
    approximation with tie correction and 0.5 continuity correction.
    """
    if not len(a) or not len(b):
        raise EvaluationError("both samples must be non-empty")
    n1, n2 = len(a), len(b)
    pooled = np.array(list(a) + list(b), dtype=np.float64)
    r1 = float(rankdata(pooled)[:n1].sum())
    u1 = n1 * n2 + n1 * (n1 + 1) / 2 - r1
    u2 = n1 * n2 - u1
    u = min(u1, u2)

    ties = np.unique(pooled, return_counts=True)[1]
    if max(n1, n2) <= EXACT_LIMIT and len(ties) == len(pooled):
        return TestResult(u, _exact_two_sided_p(n1, n2, u), n1, n2, "exact")

    n = n1 + n2
    tie_term = int((ties**3 - ties).sum())
    variance = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0:
        return TestResult(u, 1.0, n1, n2, "normal-approx")
    z = (u - n1 * n2 / 2.0 + 0.5) / math.sqrt(variance)
    p = min(1.0, 2.0 * 0.5 * math.erfc(-z / math.sqrt(2.0)))
    return TestResult(u, p, n1, n2, "normal-approx")


def descriptor_scores(
    node_values: Mapping[str, float], h: Hierarchy
) -> dict[str, float]:
    """Sum each descriptor's tree-node scores; descriptors with no scored
    node are omitted.  Each sum runs in ascending code order."""
    values, given = h.node_vector(node_values)
    sums = h.descriptor_nodes @ values
    scored = np.flatnonzero(h.descriptor_nodes @ given.astype(np.int32))
    return dict(zip([h.descriptors[i] for i in scored], sums[scored].tolist()))


def evolution_cohorts(
    node_values: Mapping[str, float],
    changes: Iterable[ChangeRecord],
    h: Hierarchy,
) -> tuple[list[float], list[float]]:
    """Partition descriptor scores into (evolving, stable) by change records.

    An empty evolving list signals that the release had no evolving
    descriptors and the statistical test should be skipped.
    """
    changed = {record.descriptor_id for record in changes}
    scores = descriptor_scores(node_values, h)
    evolving = [scores[d] for d in sorted(scores) if d in changed]
    stable = [scores[d] for d in sorted(scores) if d not in changed]
    return evolving, stable


def retraction_cohorts(
    store: ArticleStore,
    monthly_values: Mapping[str, Mapping[str, float]],
    monthly_members: Mapping[str, Iterable[int]],
    h: Hierarchy,
    year: int,
) -> tuple[list[float], list[float]]:
    """Yearly per-article score means, split into (retracted, other).

    For every month of `year`, each article present in that month's
    sampled network scores the sum of its tree nodes' values (0 when it
    has no annotations); the per-article values are averaged over the
    months in which the article appears.
    """
    months = sorted(m for m in monthly_values if year_of(m) == year)
    members = {m: np.fromiter(monthly_members.get(m, ()), dtype=np.int64) for m in months}
    ids = np.unique(np.concatenate([np.empty(0, dtype=np.int64), *members.values()]))
    articles = [store.articles[i] for i in ids.tolist()]
    rows, _ = h.incidence([article.descriptors for article in articles])
    sums = np.zeros(len(ids), dtype=np.float64)
    counts = np.zeros(len(ids), dtype=np.int64)
    for month in months:
        pos = np.searchsorted(ids, members[month])
        values, _ = h.node_vector(monthly_values[month])
        np.add.at(sums, pos, (rows @ values)[pos])
        np.add.at(counts, pos, 1)

    means = sums / counts
    retracted = np.array([article.retracted for article in articles], dtype=bool)
    return means[retracted].tolist(), means[~retracted].tolist()


def aspect_correlation(
    series: Mapping[str, Mapping[Hashable, float]], method: str = "pearson"
) -> tuple[list[str], np.ndarray]:
    """Correlation matrix across named series aligned on shared keys.

    Keys are typically (descriptor, month) pairs; only observations
    present in every series are used.  Returns (names, matrix).
    """
    if method not in ("pearson", "spearman"):
        raise EvaluationError(f"unknown correlation method {method!r}")
    names = list(series)
    if not names:
        raise EvaluationError("no series given")
    shared = set(series[names[0]])
    for name in names[1:]:
        shared &= set(series[name])
    keys = sorted(shared)
    if len(keys) < 3:
        raise EvaluationError(f"need >= 3 aligned observations, got {len(keys)}")

    data = np.array([[series[name][k] for k in keys] for name in names], dtype=float)
    if method == "spearman":
        data = np.vstack([rankdata(row, method="average") for row in data])
    matrix = np.corrcoef(data)
    np.fill_diagonal(matrix, 1.0)
    return names, matrix
