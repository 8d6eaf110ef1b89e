"""Citation-network relevance kernels: disruption index and PageRank centrality.

Both read the graph's boolean matrix and its CSC form, as does `disruption_of`,
the one-focal reference, by sets of positions.  The disruption sweep counts only
cited focals (an uncited one scores 0), by one numeric sparse product per span,
in which a citer of the focal outweighs any count of shared references.  The
counts are exact integers and only the final division is float, so the scores
keep the bits of `disruption_of` at any worker count: each of the sweep's spans,
on `WORKERS` threads, writes its own slice of the scores.
`aggregate_to_nodes` sums article scores onto tree nodes as a dict; `compute`
does it by an incidence product.
"""
from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .citegraph import CitationGraph, GraphError

BATCH_WORK = 2_000_000  # stored entries that the sweep's spans in flight touch together
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
AGGREGATE_CHUNK = 65_536  # aggregate_to_nodes' slice: whole-graph lists set the 1M peak RSS


@dataclass
class ArticleScores:
    """One score per node of a graph: `scores[i]` belongs to article `node_ids[i]`."""

    node_ids: np.ndarray
    scores: np.ndarray
    converged: bool = True

    @property
    def graph_size_m(self) -> int:
        return len(self.scores)

    @cached_property
    def values(self) -> dict[int, float]:
        """Article id -> score, built on first access."""
        return dict(zip(self.node_ids.tolist(), self.scores.tolist()))


def disruption_of(g: CitationGraph, focal: int) -> float:
    """Disruption of a focal article: (n_i - n_j) / (n_i + n_j + n_k).

    Citers of the focal split into those citing none of its references
    (i) and those citing at least one (j); k counts articles citing a
    reference without citing the focal.  0 when all three sets are empty.
    The sets hold node positions; a GraphError if `focal` is no node of `g`.
    """
    f = int(np.searchsorted(g.node_ids, focal))
    if f >= g.num_nodes or int(g.node_ids[f]) != focal:
        raise GraphError(f"unknown article id {focal}")

    def row(m, i: int) -> list[int]:  # the positions that row (or column) i of m lists
        return m.indices[m.indptr[i] : m.indptr[i + 1]].tolist()

    refs, citers = set(row(g.matrix, f)), set(row(g.incoming, f))

    n_j = 0
    for citer in citers:
        if refs and not refs.isdisjoint(row(g.matrix, citer)):
            n_j += 1
    n_i = len(citers) - n_j

    ref_citers: set[int] = set()
    for ref in refs:
        ref_citers.update(row(g.incoming, ref))
    ref_citers.discard(f)
    n_k = len(ref_citers - citers)

    denominator = n_i + n_j + n_k
    if denominator == 0:
        return 0.0
    return (n_i - n_j) / denominator


def _run_spans(work: np.ndarray, out: np.ndarray, part: Callable[[int, int], np.ndarray]) -> None:
    """Set `out[start:stop] = part(start, stop)` over spans of one item or more of
    `work`.  The caller and `WORKERS - 1` helper threads share the spans and
    `BATCH_WORK`; one span or one worker runs inline.  No thread outlives the call.
    """
    budget, cumulative = BATCH_WORK // WORKERS, np.cumsum(np.maximum(work, 1))
    pending, stop = deque(), 0
    while stop < len(work):
        start, base = stop, int(cumulative[stop - 1]) if stop else 0
        stop = max(int(np.searchsorted(cumulative, base + budget, side="right")), start + 1)
        pending.append((start, stop))
    helpers = min(WORKERS, len(pending)) - 1
    pending.extend([None] * WORKERS)  # each thread stops at the first None it takes

    def drain() -> None:
        try:
            for start, stop in iter(pending.popleft, None):
                out[start:stop] = part(start, stop)
        finally:  # after an error, the other threads stop when their span ends
            pending.extendleft([None] * WORKERS)

    if helpers < 1:
        return drain()
    with ThreadPoolExecutor(helpers) as pool:
        helped = pool.map(lambda _: drain(), range(helpers))  # submits them all now
        drain()
    list(helped)  # re-raises a helper's error


def disruption_all(g: CitationGraph) -> ArticleScores:
    """Disruption of every article, equal bit for bit to `disruption_of`.

    With A the out-adjacency and K above every out-degree, entry [f, c] of
    (A + K*I) @ A.T is c's count of references shared with f, plus K when c
    cites f.  Row f thus holds the n_i + n_j citers of f, the n_k other
    citers of its references, and f itself when it has any; n_j is the
    number of entries above K.  Entries stay below 2K, so the smallest
    unsigned type that holds 2K counts them without wrapping.  An uncited focal
    scores +0.0 (n_i = n_j = 0) and takes no row.  Each span is one call of scipy's
    numeric kernel, into the output its thread sized once for the largest span.
    Spans run on `WORKERS` threads, each writing a disjoint slice of the scores.
    """
    n = g.num_nodes
    result = np.zeros(n, dtype=np.float64)  # made first: n-sized arrays made late stay in the heap
    A = g.matrix  # [f, r] set iff f cites r
    AT = g.incoming.T  # its transpose, a CSR view
    outdeg = np.diff(A.indptr)
    indeg = np.diff(AT.indptr).astype(np.int64)
    K = int(outdeg.max(initial=0)) + 1
    dtype = np.min_scalar_type(2 * K)
    cited = np.flatnonzero(indeg)
    index, weights = AT.indices.dtype, AT.data.astype(dtype)

    # Work per focal bounds its row's entries: citations its references receive, plus its citers.
    work = (A @ indeg + indeg)[cited]

    def scores(a: int, b: int) -> np.ndarray:
        rows, size = cited[a:b], int(work[a:b].sum())
        F = A[rows] + sparse.csr_matrix(  # these rows of A + K*I
            (np.full(b - a, K, dtype=dtype), rows, np.arange(b - a + 1)), (b - a, n))
        indptr = np.empty(b - a + 1, dtype=index)
        indices, data = np.empty(size, dtype=index), np.empty(size, dtype=dtype)
        _sparsetools.csr_matmat(b - a, n, F.indptr.astype(index, copy=False),
                                F.indices.astype(index, copy=False), F.data, AT.indptr,
                                AT.indices, weights, indptr, indices, data)
        above = np.searchsorted(np.flatnonzero(data[: indptr[-1]] > K), indptr)
        denominator = np.diff(indptr) - (outdeg[rows] > 0)  # n_i + n_j + n_k, never 0 here
        return (indeg[rows] - 2 * (above[1:] - above[:-1])) / denominator

    part = np.empty(len(cited))
    _run_spans(work, part, scores)
    result[cited] = part
    return ArticleScores(g.node_ids, result)


def pagerank(
    g: CitationGraph,
    alpha: float = 0.85,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> ArticleScores:
    """Centrality by iterating x_i = alpha * sum_j A_ij x_j / outdeg(j) + beta.

    beta = 1 - alpha; edges contribute along citations received, dangling
    articles add nothing beyond their own beta, and no normalization is
    applied.  Starts from all ones; stops when the L1 change drops below
    `tol`, else returns after `max_iter` with converged=False.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    n = g.num_nodes
    beta = 1.0 - alpha

    outdeg = np.diff(g.matrix.indptr).astype(np.float64)
    into = g.incoming
    weights = 1.0 / outdeg[into.indices]  # citers always have outdeg >= 1
    P = sparse.csr_matrix((weights, into.indices, into.indptr), shape=(n, n))

    x = np.ones(n, dtype=np.float64)
    converged = False
    step = np.empty(n, dtype=np.float64)
    for _ in range(max_iter):
        x_next = P @ x
        x_next *= alpha
        x_next += beta
        change = float(np.abs(np.subtract(x_next, x, out=step), out=step).sum())
        x = x_next
        if change < tol:
            converged = True
            break
    return ArticleScores(g.node_ids, x, converged)


def aggregate_to_nodes(
    scores: ArticleScores, article_nodes: Mapping[int, frozenset[str] | set[str]]
) -> dict[str, float]:
    """Sum article scores onto their mapped nodes, divided by network size.

    An article mapped to several nodes contributes its full score to each;
    nodes with no mapped article are absent from the result.  Articles are
    summed in position order.
    """
    if scores.graph_size_m <= 0:
        raise ValueError("graph_size_m must be positive")
    sums: dict[str, float] = {}
    ids, values, step = scores.node_ids, scores.scores, AGGREGATE_CHUNK
    for s in range(0, len(ids), step):
        for article_id, score in zip(ids[s : s + step].tolist(), values[s : s + step].tolist()):
            codes = article_nodes.get(article_id)
            if not codes:
                continue
            for code in sorted(codes):
                sums[code] = sums.get(code, 0.0) + score
    return {code: total / scores.graph_size_m for code, total in sums.items()}
