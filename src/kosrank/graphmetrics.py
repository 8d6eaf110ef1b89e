"""Citation-network relevance kernels: disruption index and PageRank centrality.

Per-article scores are aggregated onto the tree nodes the articles map to,
dividing by the number of articles in the network, which seeds the
hierarchy propagation step.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np
from scipy import sparse

from .citegraph import CitationGraph

NodeSeedScores = dict[str, float]


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


def _binary(indptr: np.ndarray, indices: np.ndarray, n: int) -> sparse.csr_matrix:
    """0/1 sparse matrix over node positions from one of the graph's CSRs."""
    return sparse.csr_matrix(
        (np.ones(len(indices), dtype=np.int32), indices, indptr), shape=(n, n)
    )


def disruption_all(g: CitationGraph, batch_work: int = 5_000_000) -> ArticleScores:
    """Disruption of every article, computed with batched sparse products.

    Equivalent to calling disruption_of per node; batches are sized by the
    predicted number of reference-citer incidences so memory stays flat.
    """
    n = g.num_nodes
    A = _binary(g.out_indptr, g.out_targets, n)  # [f, r] = 1 iff f cites r
    AT = _binary(g.in_indptr, g.in_sources, n)  # its transpose
    indeg = np.diff(AT.indptr).astype(np.int64)
    # Work per focal: total citations received by its references.
    per_focal_work = (A @ indeg).astype(np.int64)
    cumulative = np.cumsum(np.maximum(per_focal_work, 1))

    result = np.zeros(n, dtype=np.float64)
    start = 0
    while start < n:
        base = int(cumulative[start - 1]) if start else 0
        stop = int(np.searchsorted(cumulative, base + batch_work, side="right"))
        stop = min(max(stop, start + 1), n)
        _disruption_batch(A, AT, start, stop, result)
        start = stop
    return ArticleScores(g.node_ids, result)


def _disruption_batch(
    A: sparse.csr_matrix,
    AT: sparse.csr_matrix,
    start: int,
    stop: int,
    result: np.ndarray,
) -> None:
    focal = slice(start, stop)
    citers = AT[focal, :]  # [f, c] = 1 iff c cites f
    shared = (A[focal, :] @ AT).tocsr()  # [f, c] = |refs(f) ∩ refs(c)|
    shared.data = np.ones(len(shared.data), dtype=np.int64)

    n_j = np.asarray(citers.multiply(shared).sum(axis=1)).ravel().astype(np.int64)
    n_citers = np.asarray(citers.sum(axis=1)).ravel().astype(np.int64)
    n_i = n_citers - n_j
    # Row f has shared[f, f] = 1 whenever f has any references; the focal
    # is excluded from its own k set.
    has_refs = (np.diff(A.indptr)[focal] > 0).astype(np.int64)
    n_k = np.asarray(shared.sum(axis=1)).ravel().astype(np.int64) - n_j - has_refs

    denominator = n_i + n_j + n_k
    nonzero = denominator > 0
    out = np.zeros(stop - start, dtype=np.float64)
    out[nonzero] = (n_i[nonzero] - n_j[nonzero]) / denominator[nonzero]
    result[start:stop] = out


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

    outdeg = np.diff(g.out_indptr).astype(np.float64)
    weights = 1.0 / outdeg[g.in_sources]  # sources always have outdeg >= 1
    P = sparse.csr_matrix((weights, g.in_sources, g.in_indptr), shape=(n, n))

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
