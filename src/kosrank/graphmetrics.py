"""Citation-network relevance kernels: disruption index and PageRank centrality.

Both read the graph's boolean matrix and its CSC form.  The disruption
sweep takes n_i + n_j as the in-degree, n_j from one shared-reference test
per citation edge, and n_k from the row nnz of a boolean sparse product.
The counts are exact integers and only the final division is float, so the
scores keep the bits of `disruption_of` at any worker count: each of the
sweep's spans, on `WORKERS` threads, writes its own slice of the counts.
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

from .citegraph import CitationGraph

BATCH_WORK = 5_000_000  # stored entries that the sweep's spans in flight touch together
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
    """
    refs = set(g.successors_of(focal).tolist())
    citers = set(g.predecessors_of(focal).tolist())

    n_j = 0
    for citer in citers:
        cited = g.successors_of(citer)
        if refs and not refs.isdisjoint(cited.tolist()):
            n_j += 1
    n_i = len(citers) - n_j

    ref_citers: set[int] = set()
    for ref in refs:
        ref_citers.update(g.predecessors_of(ref).tolist())
    ref_citers.discard(focal)
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

    n_i + n_j is the focal's in-degree.  n_j counts the edges c -> f whose
    ends share a reference: their rows of the out-adjacency A, multiplied
    element-wise, are not empty.  Row f of A @ A.T holds every citer of one
    of f's references, f itself when it has any: n_j + n_k + has_refs.
    Spans run on `WORKERS` threads; each writes a disjoint slice, so no bit depends on their count.
    """
    n = g.num_nodes
    # The output comes first and the counts are combined in place: n-sized
    # arrays made late stay in the heap (34 MB more peak RSS at 1M nodes).
    result = np.zeros(n, dtype=np.float64)
    A = g.matrix  # [f, r] set iff f cites r; bool, so its products OR and no count wraps
    AT = g.incoming.T  # its transpose, a CSR view
    outdeg = np.diff(A.indptr).astype(np.int64)
    indeg = np.diff(AT.indptr).astype(np.int64)

    citing, cited = np.repeat(np.arange(n), outdeg), A.indices
    shares_ref = np.zeros(len(cited), dtype=bool)
    _run_spans(outdeg[citing] + outdeg[cited], shares_ref,
               lambda a, b: np.diff(A[citing[a:b]].multiply(A[cited[a:b]]).indptr) > 0)
    n_j = np.bincount(cited[shares_ref], minlength=n)

    denominator = np.zeros(n, dtype=np.int64)
    # Work per focal: total citations received by its references.
    _run_spans(A @ indeg, denominator, lambda a, b: np.diff((A[a:b] @ AT).indptr))
    indeg -= n_j  # n_i
    denominator += indeg
    denominator -= outdeg > 0  # n_i + n_j + n_k
    indeg -= n_j  # n_i - n_j
    np.divide(indeg, denominator, out=result, where=denominator > 0)
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
    for _ in range(max_iter):
        x_next = alpha * (P @ x) + beta
        change = float(np.abs(x_next - x).sum())
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
