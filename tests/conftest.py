"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the library's own code paths: dense
linear algebra for PageRank, explicit global set construction for
disruption, plain double loops for category utility, a memoized
recursion for the hierarchy propagation, a per-line loop for the
citation TSV, and a loop over the descriptor map for the evolution cohorts.
"""
from __future__ import annotations

import io
from typing import Iterable

import numpy as np
from scipy import sparse

from kosrank.citegraph import CitationGraph, GraphError, build_graph
from kosrank.corpus import (
    Article,
    ArticleColumns,
    ArticleStore,
    CorpusError,
    parse_articles,
    write_articles,
)
from kosrank.hierarchy import Hierarchy, build_hierarchy, level_of, membership, parent_of

_LETTERS = "ABCDEFGHIJKLMNOP"


def random_tree(rng: np.random.Generator, max_nodes: int = 200, max_depth: int = 6) -> Hierarchy:
    """Random category forest respecting the tree-code grammar."""
    n_categories = int(rng.integers(1, 5))
    codes = list(_LETTERS[:n_categories])
    frontier = list(codes)
    depth = 1
    while frontier and depth < max_depth and len(codes) < max_nodes:
        next_frontier: list[str] = []
        for parent in frontier:
            fan = int(rng.integers(0, 4))
            for i in range(1, fan + 1):
                if len(codes) >= max_nodes:
                    break
                code = f"{parent}{i:02d}" if depth == 1 else f"{parent}.{i:03d}"
                codes.append(code)
                next_frontier.append(code)
        frontier = next_frontier
        depth += 1
    return build_hierarchy({c: "" for c in codes}, {})


def random_seeds(rng: np.random.Generator, h: Hierarchy, fill: float = 0.6) -> dict[str, float]:
    return {
        code: float(np.round(rng.normal(), 6))
        for code in sorted(h.nodes)
        if rng.random() < fill
    }


def children_by_code(h: Hierarchy) -> dict[str, list[str]]:
    """Each code's children in code order, from `parent_of` over `h.codes`."""
    children: dict[str, list[str]] = {code: [] for code in h.codes}
    for code in h.codes:
        if (parent := parent_of(code)) is not None:
            children[parent].append(code)
    return children


def codes_by_level(h: Hierarchy) -> dict[int, list[str]]:
    """Level -> its codes in code order, from `level_of` over `h.codes`."""
    levels: dict[int, list[str]] = {}
    for code in h.codes:
        levels.setdefault(level_of(code), []).append(code)
    return levels


def propagate_oracle(h: Hierarchy, seeds: dict[str, float]) -> dict[str, float]:
    """gmh(n) = seed(n) + sum(children gmh) / |nodes at the children's level|."""
    children = children_by_code(h)
    level_sizes = {lvl: len(codes) for lvl, codes in codes_by_level(h).items()}
    memo: dict[str, float] = {}

    def gmh(node: str, depth: int) -> float:
        if node in memo:
            return memo[node]
        value = seeds.get(node, 0.0)
        if children[node]:
            value += sum(gmh(c, depth + 1) for c in children[node]) / level_sizes[depth + 1]
        memo[node] = value
        return value

    for root in h.codes:
        if parent_of(root) is None:
            gmh(root, 1)
    return {
        n: memo[n]
        for n in memo
        if children[n] or n in seeds
    }


def parse_citations_oracle(lines) -> tuple[np.ndarray, np.ndarray]:
    """Line-by-line reading of the `citing \\t cited` TSV: blank lines and
    lines starting with `#` after stripping are skipped, every other line
    must split on tabs into exactly two Python ints."""
    citing: list[int] = []
    cited: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'citing\\tcited', got {line!r}")
        try:
            citing.append(int(parts[0]))
            cited.append(int(parts[1]))
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer article id") from None
    return np.asarray(citing, dtype=np.int64), np.asarray(cited, dtype=np.int64)


def pair_arrays(pairs) -> tuple[np.ndarray, np.ndarray]:
    """The (citing, cited) int64 arrays that `build_graph` takes, from a
    list of (citing, cited) pairs."""
    table = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return table[:, 0].copy(), table[:, 1].copy()


def store_from_articles(articles: Iterable[Article]) -> ArticleStore:
    table: dict[int, Article] = {}
    for article in articles:
        if article.id in table:
            raise CorpusError(f"duplicate article id {article.id}")
        table[article.id] = article
    return ArticleStore(articles=table)


def columns_of(store: ArticleStore) -> ArticleColumns:
    """The columns that `parse_articles` gives for the file `write_articles`
    writes from `store`."""
    text = io.StringIO()
    write_articles(store, text)
    text.seek(0)
    return parse_articles(text)


def descriptors_of(columns: ArticleColumns, article_id: int) -> tuple[str, ...]:
    """The sorted descriptor ids of the parsed article `article_id`."""
    i = int(np.searchsorted(columns.ids, article_id))
    assert columns.ids[i] == article_id
    m = columns.annotations
    return tuple(columns.vocabulary[j] for j in m.indices[m.indptr[i] : m.indptr[i + 1]])


def annotation_matrix(
    annotations: list[tuple[str, ...]],
) -> tuple[tuple[str, ...], sparse.csr_matrix]:
    """The sorted vocabulary of the descriptor lists `annotations` and their
    0/1 row x vocabulary matrix: the form `Hierarchy.incidence` takes."""
    vocabulary = tuple(sorted({d for row in annotations for d in row}))
    matrix, _ = membership(annotations, {d: j for j, d in enumerate(vocabulary)}, len(vocabulary))
    return vocabulary, matrix


def temporal_store(rng: np.random.Generator, n: int, n_months: int = 6) -> ArticleStore:
    """Articles 1..n with ids ordered by month so edges id->smaller are acyclic."""
    per = max(1, n // n_months)
    articles = [
        Article(id=i + 1, month=f"2014-{min(i // per + 1, 12):02d}", descriptors=())
        for i in range(n)
    ]
    return store_from_articles(articles)


def random_temporal_graph(
    rng: np.random.Generator, n: int, mean_refs: float = 3.0
) -> tuple[ArticleStore, CitationGraph]:
    """Random DAG where every article cites strictly smaller ids."""
    store = temporal_store(rng, n)
    citing: list[int] = []
    cited: list[int] = []
    for source in range(2, n + 1):
        k = min(int(rng.poisson(mean_refs)), source - 1)
        if k:
            for target in rng.choice(source - 1, size=k, replace=False):
                citing.append(source)
                cited.append(int(target) + 1)
    return store, build_graph(
        (np.array(citing, dtype=np.int64), np.array(cited, dtype=np.int64)), store
    )


def disruption_oracle(g: CitationGraph, focal: int) -> float:
    """Explicit i/j/k set construction over every node in the graph."""
    refs = set(g.successors_of(focal).tolist())
    i_set, j_set, k_set = set(), set(), set()
    for raw in g.node_ids:
        node = int(raw)
        if node == focal:
            continue
        out = set(g.successors_of(node).tolist())
        cites_focal = focal in out
        cites_ref = bool(out & refs)
        if cites_focal and cites_ref:
            j_set.add(node)
        elif cites_focal:
            i_set.add(node)
        elif cites_ref:
            k_set.add(node)
    denominator = len(i_set) + len(j_set) + len(k_set)
    if denominator == 0:
        return 0.0
    return (len(i_set) - len(j_set)) / denominator


def pagerank_oracle(g: CitationGraph, alpha: float = 0.85) -> dict[int, float]:
    """Dense solve of (I - alpha P) x = beta 1 with P from received citations."""
    n = g.num_nodes
    pos = {int(v): i for i, v in enumerate(g.node_ids)}
    P = np.zeros((n, n))
    for raw in g.node_ids:
        source = int(raw)
        targets = g.successors_of(source)
        if len(targets):
            w = 1.0 / len(targets)
            for t in targets.tolist():
                P[pos[t], pos[source]] += w
    x = np.linalg.solve(np.eye(n) - alpha * P, (1.0 - alpha) * np.ones(n))
    return {int(v): float(x[pos[int(v)]]) for v in g.node_ids}


def usefulness_oracle(rows: dict[str, frozenset[int]], n_nodes: int) -> dict[str, float]:
    """Double-loop category utility over a dense copy of the incidence;
    `rows` maps each node to the set of articles marking it."""
    codes = sorted(rows)
    articles = sorted({a for row in rows.values() for a in row})
    M = np.zeros((len(codes), len(articles)), dtype=np.int64)
    for i, code in enumerate(codes):
        for j, article in enumerate(articles):
            if article in rows[code]:
                M[i, j] = 1
    total = M.sum()
    out: dict[str, float] = {}
    for i, code in enumerate(codes):
        p_c = M[i].sum() / total if total else 0.0
        acc = 0.0
        for j in range(len(articles)):
            colsum = M[:, j].sum()
            if colsum == 0:
                continue
            p_f = colsum / n_nodes
            acc += float(M[i, j]) ** 2 - p_f**2
        out[code] = p_c * acc
    return out


def evolution_cohorts_oracle(
    h: Hierarchy, node_means: dict[str, float], changed: set[str]
) -> tuple[list[float], list[float]]:
    """Loop over the descriptor map: each descriptor with a scored node sums
    its scored node means one at a time in ascending code order, and goes
    to the evolving list if it changed, else to the stable one."""
    evolving: list[float] = []
    stable: list[float] = []
    for descriptor in sorted(h.descriptor_map):
        scored = [code for code in sorted(h.descriptor_map[descriptor]) if code in node_means]
        if not scored:
            continue
        total = 0.0
        for code in scored:
            total += node_means[code]
        (evolving if descriptor in changed else stable).append(total)
    return evolving, stable
