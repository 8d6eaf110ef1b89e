"""Citation-network relevance kernels: disruption index and PageRank centrality.

Both read the graph's boolean matrix and its CSC form.  The disruption
sweep takes n_i + n_j as the in-degree, n_j from one shared-reference test
per citation edge, and n_k from the row nnz of a boolean sparse product.
The counts are exact integers and only the final division is float, so the
scores keep the bits of `disruption_of`.  `aggregate_to_nodes` sums article
scores onto tree nodes as a dict; `compute` does it by an incidence product.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

import numpy as np
from scipy import sparse

from .citegraph import CitationGraph

NodeSeedScores = dict[str, float]
BATCH_WORK = 5_000_000  # stored entries that one edge chunk or focal batch of the sweep touches


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


def _spans(work: np.ndarray, budget: int) -> Iterator[tuple[int, int]]:
    """Consecutive (start, stop) ranges of one item or more whose work fits `budget`."""
    cumulative = np.cumsum(np.maximum(work, 1))
    start = 0
    while start < len(work):
        base = int(cumulative[start - 1]) if start else 0
        stop = max(int(np.searchsorted(cumulative, base + budget, side="right")), start + 1)
        yield start, stop
        start = stop


def disruption_all(g: CitationGraph) -> ArticleScores:
    """Disruption of every article, equal bit for bit to `disruption_of`.

    n_i + n_j is the focal's in-degree.  n_j counts the edges c -> f whose
    ends share a reference: their rows of the out-adjacency A, multiplied
    element-wise, are not empty.  Row f of A @ A.T holds every citer of one
    of f's references, f itself when it has any: n_j + n_k + has_refs.
    Edge chunks and focal batches are sized to touch `BATCH_WORK` entries.
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
    for start, stop in _spans(outdeg[citing] + outdeg[cited], BATCH_WORK):
        both = A[citing[start:stop]].multiply(A[cited[start:stop]])
        shares_ref[start:stop] = np.diff(both.indptr) > 0
    n_j = np.bincount(cited[shares_ref], minlength=n)

    denominator = np.zeros(n, dtype=np.int64)
    # Work per focal: total citations received by its references.
    for start, stop in _spans(A @ indeg, BATCH_WORK):
        denominator[start:stop] = np.diff((A[start:stop] @ AT).indptr)
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
) -> NodeSeedScores:
    """Sum article scores onto their mapped nodes, divided by network size.

    An article mapped to several nodes contributes its full score to each;
    nodes with no mapped article are absent from the result.  Articles are
    summed in position order.
    """
    if scores.graph_size_m <= 0:
        raise ValueError("graph_size_m must be positive")
    sums: dict[str, float] = {}
    for article_id, score in zip(scores.node_ids.tolist(), scores.scores.tolist()):
        codes = article_nodes.get(article_id)
        if not codes:
            continue
        for code in sorted(codes):
            sums[code] = sums.get(code, 0.0) + score
    return {code: total / scores.graph_size_m for code, total in sums.items()}
