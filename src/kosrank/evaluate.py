"""Cohort statistics: Mann-Whitney tests, evolution/retraction cohorts,
and aspect correlation matrices.

Every function works on node positions, the hierarchy's nodes in code
order: node scores arrive as float vectors over those positions with a
boolean mask of the scored ones, and articles as incidence rows.  A
descriptor's score is the sum of its tree-node scores (`descriptor_sums`),
giving one observation per descriptor for the evolution test; an
article's score is the sum over its nodes, averaged over the year's
months (`retraction_split`).
`correlation_matrix` takes the aligned series as the rows of an array.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

import numpy as np
from scipy import sparse

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
        if not re.match(r"[0-9]{4}", self.release):
            raise EvaluationError(f"release {self.release!r} does not start with a year")
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


def write_changes(changes: list[ChangeRecord], out) -> None:
    for record in changes:
        out.write(f"{record.release}\t{record.descriptor_id}\t{record.change_type}\n")


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


def _average_ranks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy's `rankdata` average ranks of `x` and the sizes of its tie
    groups in ascending value order, from one sort.  A group of c equal
    values ending at ordinal rank e takes e - (c - 1) / 2, a half-integer and
    so exact; a nan anywhere makes every rank nan, as in `rankdata`."""
    values, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2)[inverse]
    if np.isnan(values[-1:]).any():  # np.unique sorts nan last
        ranks[:] = np.nan
    return ranks, counts


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
    ranks, ties = _average_ranks(pooled)
    r1 = float(ranks[:n1].sum())
    u1 = n1 * n2 + n1 * (n1 + 1) / 2 - r1
    u2 = n1 * n2 - u1
    u = min(u1, u2)

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


def descriptor_sums(
    descriptor_nodes: sparse.csr_matrix, values: np.ndarray, given: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-descriptor sums of a node vector, or of each column of a node x
    month array, each in ascending code order, and which descriptors have a
    given node, of the 0/1 descriptor x node `descriptor_nodes`; `values`
    and `given` are indexed by node position first."""
    return descriptor_nodes @ values, (descriptor_nodes @ given.astype(np.int32)) > 0


def evolution_cohorts(
    descriptors: Sequence[str], descriptor_nodes: sparse.csr_matrix, values: np.ndarray,
    scored: np.ndarray, changed: Collection[str],
) -> tuple[list[float], list[float]]:
    """Per-descriptor sums of a node vector, split into (evolving, stable).

    `descriptors` names the rows of `descriptor_nodes`; `values` and `scored`
    are laid out as for `descriptor_sums`.  Descriptors with no scored node
    are left out, `changed` holds the evolving ids, and both lists are in
    `descriptors` order.  An empty evolving list signals that the release
    had no evolving descriptors and the statistical test should be skipped.
    """
    sums, given = descriptor_sums(descriptor_nodes, values, scored)
    evolving = np.array([d in changed for d in descriptors], dtype=bool)
    return sums[given & evolving].tolist(), sums[given & ~evolving].tolist()


def retraction_split(
    rows: sparse.csr_matrix,
    retracted: np.ndarray,
    member_rows: Sequence[np.ndarray],
    node_vectors: Sequence[np.ndarray],
) -> tuple[list[float], list[float]]:
    """Yearly per-article score means, split into (retracted, other).

    `rows` holds one incidence row per article and `retracted` its flag;
    month k of the year lists its sampled members as row numbers in
    `member_rows[k]` and its node values in `node_vectors[k]`.  In each
    month a member scores the sum of its nodes' values (0 when it has no
    annotations); its means are taken over the months it appears in, and
    an article in none is left out.
    """
    sums = np.zeros(rows.shape[0], dtype=np.float64)
    counts = np.zeros(rows.shape[0], dtype=np.int64)
    for at, values in zip(member_rows, node_vectors):
        np.add.at(sums, at, rows[at] @ values)
        np.add.at(counts, at, 1)
    seen = counts > 0
    means, retracted = sums[seen] / counts[seen], retracted[seen]
    return means[retracted].tolist(), means[~retracted].tolist()


def correlation_matrix(data: np.ndarray, method: str = "pearson") -> np.ndarray:
    """Correlation matrix of the rows of `data`, one aligned series per row.

    The rows are copied to C order first: np.corrcoef's products round
    differently on a column-major copy of the same values.
    """
    if method not in ("pearson", "spearman"):
        raise EvaluationError(f"unknown correlation method {method!r}")
    data = np.ascontiguousarray(data, dtype=np.float64)
    if data.shape[1] < 3:
        raise EvaluationError(f"need >= 3 aligned observations, got {data.shape[1]}")
    if method == "spearman":
        data = np.vstack([_average_ranks(row)[0] for row in data])
    with np.errstate(divide="ignore", invalid="ignore"):  # a constant series gives nan
        matrix = np.corrcoef(data)
    np.fill_diagonal(matrix, 1.0)
    return matrix
