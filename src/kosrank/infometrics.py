"""Information-theoretic relevance: per-level entropy terms and category utility.

Both metrics work on article-to-node mappings propagated up the tree: an
article that maps to a node also marks every ancestor of that node.

The mappings are article x node incidence rows on the hierarchy's positional
columns.  One product with the ancestor closure feeds both metrics: its
column sums are the propagated counts, its non-zero pattern the propagated
incidence.  Counts are exact integers; the one float sum, sum_k p(k)^2 in
usefulness, adds one article at a time in ascending id, so it keeps its bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy import sparse

from .hierarchy import Hierarchy, level_of, membership

INFORMATIVENESS_MODES = ("entropy-term", "surprisal")


@dataclass
class MappingCounts:
    """Counts of article mappings per node, direct and subtree-propagated."""

    direct: dict[str, int]
    propagated: dict[str, int]
    level_totals: dict[int, int]


@dataclass
class MappingMatrix:
    """Binary node x article incidence, rows already propagated to ancestors."""

    rows: dict[str, frozenset[int]]
    n_nodes: int
    m_articles: int


def mapping_counts(
    h: Hierarchy, pairs: Iterable[tuple[int, str]]
) -> MappingCounts:
    """Tally direct mappings and propagate them bottom-up.

    `pairs` is (article id, tree code); an article mapping to k distinct
    nodes contributes k direct counts.  Duplicated pairs count once.
    """
    _, incidence = _pair_incidence(h, pairs)
    return subtree_counts(h, incidence, incidence @ h.closure)


def subtree_counts(
    h: Hierarchy, incidence: sparse.csr_matrix, closed: sparse.csr_matrix
) -> MappingCounts:
    """Counts from article x node incidence rows and their closure product.

    `closed` is `incidence @ h.closure`: entry (a, c) counts the direct
    nodes of article a at or below node c.
    """
    direct = np.asarray(incidence.sum(axis=0)).ravel()
    propagated = np.asarray(closed.sum(axis=0)).ravel()
    level_totals = np.bincount(h.level, weights=propagated)
    return MappingCounts(
        direct=dict(zip(h.codes, direct.tolist())),
        propagated=dict(zip(h.codes, propagated.tolist())),
        level_totals={lvl: int(t) for lvl, t in enumerate(level_totals.tolist()) if lvl},
    )


def informativeness(counts: MappingCounts, mode: str = "entropy-term") -> dict[str, float]:
    """Score each node by its share p of its level's propagated mappings.

    entropy-term: -p * log2(p), the node's summand in the level's Shannon
    entropy (0 when p is 0).  surprisal: -log2(p), unscored when p is 0.
    Nodes on levels with no mappings are left unscored.
    """
    if mode not in INFORMATIVENESS_MODES:
        raise ValueError(f"unknown informativeness mode {mode!r}")
    values: dict[str, float] = {}
    for code in sorted(counts.propagated):
        total = counts.level_totals.get(level_of(code), 0)
        if total <= 0:
            continue
        p = counts.propagated[code] / total
        if mode == "entropy-term":
            values[code] = -p * math.log2(p) if p > 0 else 0.0
        elif p > 0:
            values[code] = -math.log2(p)
    return values


def build_mapping_matrix(
    h: Hierarchy, pairs: Iterable[tuple[int, str]]
) -> MappingMatrix:
    """Incidence matrix over all hierarchy nodes with ancestor propagation."""
    articles, incidence = _pair_incidence(h, pairs)
    closed = (incidence @ h.closure).tocsc()
    columns = np.split(closed.indices, closed.indptr[1:-1])
    return MappingMatrix(
        rows={code: frozenset(articles[col].tolist()) for code, col in zip(h.codes, columns)},
        n_nodes=len(h.codes),
        m_articles=len(articles),
    )


def usefulness(matrix: MappingMatrix) -> dict[str, float]:
    """Category utility of each node over the binary incidence matrix.

    With row mass share p(c), per-article column mean p(k), and the binary
    cell as the conditional feature probability, the score reduces to
    p(c) * (|row(c)| - sum_k p(k)^2) over columns that are non-empty.
    """
    codes = sorted(matrix.rows)
    if matrix.m_articles == 0:
        return dict.fromkeys(codes, 0.0)
    articles = sorted(set().union(*matrix.rows.values()))
    column = {article: k for k, article in enumerate(articles)}
    marks, _ = membership([matrix.rows[code] for code in codes], column, len(articles))
    return dict(zip(codes, category_utility(marks.T, matrix.n_nodes).tolist()))


def category_utility(closed: sparse.csr_matrix, n_nodes: int) -> np.ndarray:
    """`usefulness` per column of an article x node matrix whose non-zero
    pattern is the propagated incidence; rows are in ascending article id."""
    row_len = closed.getnnz(axis=0)  # |row(c)|: articles marking node c
    total_mass = int(row_len.sum())
    if total_mass == 0:
        return np.zeros(closed.shape[1], dtype=np.float64)
    # Python's sum over ascending articles, skipping empty columns, keeps
    # the constant term bit-identical run to run.
    sum_pk_sq = sum((k / n_nodes) ** 2 for k in closed.getnnz(axis=1).tolist() if k)
    return row_len / total_mass * (row_len - sum_pk_sq)


def _pair_incidence(
    h: Hierarchy, pairs: Iterable[tuple[int, str]]
) -> tuple[np.ndarray, sparse.csr_matrix]:
    """Distinct article ids, ascending, and their binary article x node rows."""
    by_article: dict[int, list[str]] = {}
    for article_id, code in pairs:
        if code not in h.position:
            raise KeyError(f"unknown tree code {code}")
        by_article.setdefault(article_id, []).append(code)
    articles = sorted(by_article)
    incidence, _ = membership([by_article[a] for a in articles], h.position, len(h.codes))
    return np.array(articles, dtype=np.int64), incidence
