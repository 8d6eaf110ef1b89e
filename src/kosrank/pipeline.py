"""The CLI stages but `generate`, one function each, which `cli.STAGES` runs.

compute      -> per-month aspect score CSVs (+ sampled-member lists + manifest)
fuse         -> fused rankings per month, global and per level
trend        -> yearly-average rank slopes and top/bottom tables
run_evaluate -> Mann-Whitney cohort tests and aspect correlation matrices
export_plots -> one SVG rank-trajectory chart per level scope

Every output file carries the config hash in a header comment, and all
orderings are pinned so reruns (at any thread count) are byte-identical.

`ingest` and `compute` also write `.npy` mirrors (see `mirror`) of the arrays
they parsed or computed: `ingest/` and `compute.*`.  A record names its
sources by role, not by path, so a mirror moved with its inputs still matches.
`compute`'s record, which `_record` loads by name, is the one interface to the
later stages: they read the node codes and levels, the scores and each
aspect's ranks, the members and, for `run_evaluate`, the descriptor map and
the sampled articles' ids, node rows and retraction flags (each 0/1 matrix by
`hierarchy.pattern`) only from its arrays.  Each fuses the ranks at its own
`rrf_k` into the window month x node arrays that `fuse` writes out (`_fused`).
So `run_evaluate` parses only the change records, the other later stages no
input, and no stage reads what `fuse` writes.  That record holds the digests
of the hierarchy and of the articles, the window and the `COMPUTE_KEYS`
values; a missing or mismatched one is an error that says to rerun `compute`.
"""
from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np
from scipy import sparse

from . import citegraph, evaluate, fusion, graphmetrics, infometrics, mirror, propagation
from .config import PipelineConfig
from .corpus import ArticleColumns, CorpusError, parse_articles, text_rows
from .evaluate import ChangeRecord, parse_changes
from .hierarchy import Hierarchy, HierarchyError, parse_hierarchy, pattern
from .months import month_index, normalize_month, year_of
from .plots import rank_chart_svg
from .scores import ASPECTS, RELEVANCE, float_text, write_rows, write_scores_csv

ANNOTATION_ARRAYS = ("ids", "month_idx", "retracted", "indptr", "indices", "unknown")
GRAPH_ARRAYS = ("out_indptr", "out_targets", "dropped")
TOP_K = 10  # the nodes in each top or bottom table and in each rank chart
COMPUTE_ARRAYS = ("codes", "level", "values", "aspect_rank", "ids", "indptr", "descriptors",
                  "descriptor_indptr", "descriptor_indices", "sampled_ids", "sampled_indptr",
                  "sampled_indices", "retracted")
# The config values `compute` reads, which its record holds beside the window
COMPUTE_KEYS = ("sample_fraction", "base_seed", "pagerank_alpha", "pagerank_tol",
                "pagerank_max_iter", "informativeness_mode")


class PipelineError(RuntimeError):
    pass


@dataclass
class IngestData:
    """The parsed inputs: the hierarchy, the change records, the article
    columns with their article x node incidence, and the citation graph."""

    hierarchy: Hierarchy
    autocreated_codes: int  # codes seen only through descriptor rows, no listing
    changes: list[ChangeRecord]
    ids: np.ndarray  # sorted article ids
    month_idx: np.ndarray  # each article's `months.month_index`
    retracted: np.ndarray  # bool
    incidence: sparse.csr_matrix  # article x node: rows over ids, columns over hierarchy.codes
    unknown_descriptor_refs: int
    graph: citegraph.CitationGraph
    sources: dict[str, str] = field(default_factory=dict)  # role -> sha256 of each file read

    def report_lines(self) -> list[str]:
        g = self.graph
        return [
            f"hierarchy nodes: {len(self.hierarchy.codes)}",
            f"descriptors mapped: {len(self.hierarchy.descriptors)}",
            f"auto-created codes: {self.autocreated_codes}",
            f"articles: {len(self.ids)}",
            f"unknown descriptor references: {self.unknown_descriptor_refs}",
            f"edges kept: {g.num_edges}",
            f"self-loops dropped: {g.self_loops_dropped}",
            f"unknown-endpoint edges dropped: {g.unknown_dropped}",
            f"duplicate edges dropped: {g.duplicates_dropped}",
            f"change records: {len(self.changes)}",
        ]


def ingest_arrays(h: Hierarchy, articles: ArticleColumns, edges) -> dict[str, np.ndarray]:
    """The ingest mirror arrays of parsed inputs: the article columns, the
    pattern of their incidence on `h`, the unknown descriptor count, and the
    pattern of the graph's matrix of the `edges` and its drop counters."""
    m, unknown = h.incidence(articles.vocabulary, articles.annotations)
    g = citegraph.build_graph(edges, articles)  # it reads only the sorted `ids`
    drops = [g.self_loops_dropped, g.unknown_dropped, g.duplicates_dropped]
    return dict(ids=articles.ids, month_idx=articles.month_idx, retracted=articles.retracted,
                indptr=m.indptr, indices=m.indices, unknown=np.array(unknown),
                out_indptr=g.matrix.indptr, out_targets=g.matrix.indices, dropped=np.array(drops))


def ingest_data(h: Hierarchy, autocreated: int, changes, a: dict[str, np.ndarray]) -> IngestData:
    """The inputs that `ingest_arrays` laid out: each 0/1 matrix from its pattern."""
    matrix = pattern(a["out_indptr"], a["out_targets"], len(a["ids"]), bool)
    graph = citegraph.CitationGraph(a["ids"], matrix, *a["dropped"].tolist())
    incidence = pattern(a["indptr"], a["indices"], len(h.codes))
    columns = (a["ids"], a["month_idx"], a["retracted"], incidence, int(a["unknown"]))
    return IngestData(h, autocreated, changes, *columns, graph)


def _require(path: str, what: str) -> Path:
    if not path:
        raise PipelineError(f"config does not set the {what} path")
    p = Path(path)
    if not p.exists():
        raise PipelineError(f"{what} file not found: {p}")
    return p


def _parse(path: Path, parser):
    """`parser` of the UTF-8 text file at `path`; an input error names the path."""
    try:
        return mirror.parse_utf8(path, parser)
    except (CorpusError, citegraph.GraphError, HierarchyError, evaluate.EvaluationError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def ingest(cfg: PipelineConfig, save: bool = True) -> IngestData:
    """Parse and cross-validate the configured inputs, and with `save` mirror
    the parsed arrays under `<output_dir>/ingest/`.  Without `save`, the
    arrays come from those mirrors while they match their sources, else
    from parsing."""
    names = ["hierarchy", "articles", "changes", "citations"]
    # A wrong path fails before any file is parsed, in the order they are read.
    paths = {n: _require(getattr(cfg, n), n) for n in names if n != "changes" or cfg.changes}
    digest = mirror.digests(paths)
    of = lambda *keys: {k: digest[k] for k in keys}  # noqa: E731
    hierarchy, autocreated = _parse(paths["hierarchy"], parse_hierarchy)
    at = Path(cfg.output_dir) / "ingest"
    mirrors = [(at / "annotations", ANNOTATION_ARRAYS, of("hierarchy", "articles"), {}),
               (at / "graph", GRAPH_ARRAYS, of("articles", "citations"), {})]
    arrays = None
    if not save:
        parts = [mirror.load(*m) for m in mirrors]
        arrays = None if None in parts else {k: v for part in parts for k, v in part.items()}
    articles = _parse(paths["articles"], parse_articles) if arrays is None else None
    changes = _parse(paths["changes"], parse_changes) if "changes" in paths else []
    if arrays is None:
        edges = _parse(paths["citations"], citegraph.parse_citations)
        arrays = ingest_arrays(hierarchy, articles, edges)
    if save:
        for stem, keys, sources, meta in mirrors:
            mirror.save(stem, {k: arrays[k] for k in keys}, sources, meta)
    return replace(ingest_data(hierarchy, autocreated, changes, arrays), sources=digest)


@dataclass
class MonthResult:
    month: str
    seed: int
    member_ids: np.ndarray
    values: np.ndarray  # aspect x node, in ASPECTS order
    scored: np.ndarray  # bool, the same layout
    converged: bool  # whether PageRank met pagerank_tol


def compute_month(cfg: PipelineConfig, data: IngestData, month: str, index: int) -> MonthResult:
    """All four aspect score tables for one snapshot month.

    Graph metrics run on the sampled cumulative network and are spread up
    the hierarchy; information metrics use the month's own mappings with
    direct ancestor propagation.
    """
    h = data.hierarchy
    seed = cfg.base_seed + index
    cutoff = month_index(normalize_month(month))
    # graph.node_ids is ids, so the candidates are the snapshot of months up to `month`
    candidates = data.month_idx <= cutoff
    sampled = citegraph.sample_nodes(data.graph, candidates, cfg.sample_fraction, seed)
    rows = data.incidence[np.searchsorted(data.ids, sampled.node_ids)]
    seeded = rows.getnnz(axis=0) > 0

    influence_scores = graphmetrics.pagerank(
        sampled, alpha=cfg.pagerank_alpha, tol=cfg.pagerank_tol, max_iter=cfg.pagerank_max_iter
    )
    disruption_scores = graphmetrics.disruption_all(sampled)

    n = len(h.codes)
    values = np.zeros((len(ASPECTS), n))
    scored = np.zeros(values.shape, dtype=bool)
    # ASPECTS[:2]: an empty sample leaves both graph aspects unscored
    for s, article_scores in enumerate((disruption_scores, influence_scores)):
        if article_scores.graph_size_m > 0:
            # The CSC product adds each node's articles one at a time in
            # ascending id, as aggregate_to_nodes does, so the sums keep their bits.
            seeds = rows.T @ article_scores.scores / article_scores.graph_size_m
            values[s], scored[s] = propagation.propagate_positions(h, seeds, seeded)

    closed = data.incidence[np.flatnonzero(data.month_idx == cutoff)] @ h.closure
    counts = infometrics.subtree_counts(closed)
    values[2], scored[2] = infometrics.informativeness(h, counts, mode=cfg.informativeness_mode)
    values[3], scored[3] = infometrics.category_utility(closed, n), True
    return MonthResult(
        month=month,
        seed=seed,
        member_ids=sampled.node_ids,
        values=values,
        scored=scored,
        converged=influence_scores.converged,
    )


def compute(cfg: PipelineConfig, threads: int = 1) -> list[str]:
    """Run compute_month over the window, `threads` months at a time, and
    write scores, members, manifest.

    Nothing is written until every month has succeeded, so failures leave
    no partial outputs behind.
    """
    data = ingest(cfg, save=False)
    window = cfg.window()
    month = partial(compute_month, cfg, data)
    if threads == 1:  # no thread, nor in a default-scale month's sweep: each adds a malloc arena
        results = list(map(month, window, range(len(window))))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(month, window, range(len(window))))
    for result in results:
        if not result.converged:
            print(
                f"warning: {result.month}: PageRank did not converge within "
                f"pagerank_max_iter = {cfg.pagerank_max_iter} iterations",
                file=sys.stderr,
            )

    out, h = Path(cfg.output_dir), data.hierarchy
    chash = cfg.config_hash()
    values, scored = np.array([r.values for r in results]), np.array([r.scored for r in results])
    members = [r.member_ids for r in results]
    score_paths = [out / "scores" / f"{a}_{m}.csv" for m in window for a in ASPECTS]
    member_paths = [out / "members" / f"{m}.csv" for m in window]
    write_scores_csv(h, score_paths, window, values, scored, chash)
    for path, ids in zip(member_paths, members):
        write_rows(path, "article_id", [text_rows(ids, b"\n")], chash)

    manifest = {
        "config_hash": chash,
        "months": window,
        "seeds": {r.month: r.seed for r in results},
        "sample_fraction": cfg.sample_fraction,
        "counts": {
            "articles": len(data.ids),
            "graph_edges": data.graph.num_edges,
            "hierarchy_nodes": len(h.codes),
        },
    }
    _write_json(out / "manifest.json", manifest)
    # what the score text says: 0 where unscored, and "nan" reads back as float("nan")
    values = np.where(scored, np.where(np.isnan(values), np.nan, values), 0.0)
    aspect_rank = np.array([list(map(fusion.rank_by_aspect, v, s)) for v, s in zip(values, scored)],
                           dtype=np.int32)  # window month x aspect x node, 0 where unscored
    sampled, ids = np.zeros(len(data.ids), dtype=bool), np.concatenate(members)
    sampled[np.searchsorted(data.ids, ids)] = True  # the window's sampled articles
    rows, d = data.incidence[sampled], h.descriptor_nodes
    arrays = (np.array(h.codes), h.level, values, aspect_rank, ids,
              np.cumsum([0, *map(len, members)]), np.array(h.descriptors), d.indptr, d.indices,
              data.ids[sampled], rows.indptr, rows.indices, data.retracted[sampled])
    sources = {k: data.sources[k] for k in ("hierarchy", "articles")}
    mirror.save(out / "compute", dict(zip(COMPUTE_ARRAYS, arrays)), sources, _compute_meta(cfg))
    return [str(p) for p in (*score_paths, *member_paths, out / "manifest.json")]


def _write_json(path: Path, obj: dict) -> None:
    mirror.write_file(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


def _compute_meta(cfg: PipelineConfig) -> dict:
    """The meta of the compute mirror: the window and the `COMPUTE_KEYS`
    values.  Its sources are the digests of the hierarchy and of the articles."""
    return {"months": cfg.window(), **{k: getattr(cfg, k) for k in COMPUTE_KEYS}}


def _record(cfg: PipelineConfig, *roles: str) -> dict[str, np.ndarray]:
    """compute's record, its arrays by name.  It must hold the sha256 of
    each input of `roles`, the file that compute read, and this config's
    `_compute_meta`; a record that is missing or does not match is a
    PipelineError."""
    sources = mirror.digests({role: _require(getattr(cfg, role), role) for role in roles})
    stem = Path(cfg.output_dir) / "compute"
    arrays = mirror.load(stem, COMPUTE_ARRAYS, sources, _compute_meta(cfg))
    if arrays is None:
        raise PipelineError(f"{stem}.mirror.json is missing or does not match; rerun compute")
    return arrays


def _level_order(level: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """The positions that the global `rank` ranks, by node `level`, then by rank."""
    ranked = np.flatnonzero(rank)
    return ranked[np.lexsort((rank[ranked], level[ranked]))]


def _fused(level: np.ndarray, aspect_rank: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """The fused value, the global rank and the level rank (the global order
    restricted to the node's level) over window month x node position, of the
    window month x aspect x node ranks; 0 where no aspect ranks the node."""
    rrf = np.array([fusion.rrf_fuse(r.astype(np.int64), k=k) for r in aspect_rank])  # k + rank
    rank = np.array([fusion.rank_by_aspect(v, v > 0) for v in rrf])  # ranked by some aspect
    level_rank = np.zeros_like(rank)
    for m, order in enumerate(_level_order(level, r) for r in rank):
        levels = level[order]  # ascending: each level starts where searchsorted finds it
        level_rank[m, order] = np.arange(1, len(order) + 1) - np.searchsorted(levels, levels)
    return rrf, rank, level_rank


def fuse(cfg: PipelineConfig) -> Path:
    """Fuse per-aspect rankings per month; write global and per-level rows."""
    a = _record(cfg, "hierarchy")
    codes, level = a["codes"].astype("S"), a["level"]
    rrf, *ranks = _fused(level, a["aspect_rank"], cfg.rrf_k)
    path = Path(cfg.output_dir) / "rankings.csv"
    rows = []  # a month's global rows, then its level rows
    for month, month_rrf, rank, level_rank in zip(cfg.window(), rrf, *ranks):
        order = _level_order(level, rank)
        text, by_rank = float_text(month_rrf[order]), np.argsort(rank[order])
        ranked = order[by_rank]  # in global rank order
        rows += [text_rows(f"{month},global,".encode(), codes[ranked], b",", text[by_rank], b",",
                           rank[ranked], b"\n"),
                 text_rows(f"{month},level-".encode(), level[order], b",", codes[order], b",",
                           text, b",", level_rank[order], b"\n")]
    write_rows(path, "month,scope,tree_code,rrf_value,rank", rows, cfg.config_hash())
    return path


def scope_mean_ranks(
    level: np.ndarray, window: list[str], level_rank: np.ndarray
) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Level scope -> (the window's years, mean level rank per year x node,
    mean level rank per node over the window), from the node `level`s and
    the window month x node fused `level_rank`.

    A mean is 0 where the node is outside the scope or no month of that span
    ranks it.  Scopes ranked in no window month are left out.
    """
    month_years = np.array([year_of(m) for m in window])
    years = np.unique(month_years)
    yearly = np.array([fusion.mean_ranks(level_rank[month_years == y]) for y in years])
    window_means = fusion.mean_ranks(level_rank)
    ranked_levels = np.unique(level[window_means > 0]).tolist()
    return {
        scope: (years, yearly * (level == lvl), window_means * (level == lvl))
        for scope, lvl in sorted((f"level-{lvl}", lvl) for lvl in ranked_levels)
    }


def trend(cfg: PipelineConfig) -> tuple[Path, Path]:
    """Write rank-trend slopes (yearly mean ranks) and top/bottom tables."""
    a = _record(cfg, "hierarchy")
    codes, level = a["codes"].astype("S"), a["level"]
    means = scope_mean_ranks(level, cfg.window(), _fused(level, a["aspect_rank"], cfg.rrf_k)[2])
    out, chash = Path(cfg.output_dir), cfg.config_hash()
    trends = [text_rows(codes[i], b",", level[i], b",", float_text(slope), b",", years[y0], b",",
                        years[y1], b"\n")
              for years, yearly, _ in means.values()
              for i, slope, y0, y1 in [fusion.rank_trend_slope(yearly)]]
    tables = [text_rows(f"{scope},{kind},".encode(), np.arange(1, len(top) + 1), b",", codes[top],
                        b",", float_text(window_means[top]), b"\n")
              for scope, (_, _, window_means) in means.items()
              for kind, sign in (("top", 1), ("bottom", -1))
              for top in [fusion.top_k(sign * window_means, TOP_K)]]
    trends_path, tables_path = out / "trends.csv", out / "tables.csv"
    write_rows(trends_path, "tree_code,level,slope,first_year,last_year", trends, chash)
    write_rows(tables_path, "scope,kind,position,tree_code,mean_rank", tables, chash)
    return trends_path, tables_path


def export_plots(cfg: PipelineConfig) -> tuple[int, Path]:
    """Write one SVG chart per level scope of its top `TOP_K` nodes' yearly
    mean ranks; return the number of charts and their directory."""
    a = _record(cfg, "hierarchy")
    codes, level = a["codes"].tolist(), a["level"]
    means = scope_mean_ranks(level, cfg.window(), _fused(level, a["aspect_rank"], cfg.rrf_k)[2])
    out = Path(cfg.output_dir) / "plots"
    out.mkdir(parents=True, exist_ok=True)
    for scope, (years, yearly, window_means) in means.items():
        nodes = fusion.top_k(window_means, TOP_K).tolist()
        svg = rank_chart_svg(
            f"top {len(nodes)} concepts, {scope}",
            [str(y) for y in years],
            # a mean of 0: no month of that year ranks the node, so no point
            {codes[i]: [r or None for r in yearly[:, i].tolist()] for i in nodes},
            config_hash=cfg.config_hash(),
        )
        mirror.write_file(out / f"rank_{scope}.svg", svg.encode())
    return len(means), out


def _cohort_test(
    a: list[float],
    b: list[float],
    mean_keys: tuple[str, str],
    reason: str = "empty cohort",
    **labels,
) -> dict:
    """The result row of one cohort test: skipped, with `reason`, when a
    cohort is empty; else the Mann-Whitney test and both cohort means."""
    if not a or not b:
        return dict(labels, status="skipped", reason=reason)
    r = evaluate.mann_whitney(a, b)
    row = dict(labels, status="ok", u=r.u_statistic, p=r.p_value, n1=r.n1, n2=r.n2, method=r.method)
    # `acc = 0.0; acc += v` left to right: Python 3.12's `sum` over floats compensates
    row.update(zip(mean_keys, (float(np.cumsum([0.0, *c])[-1]) / len(c) for c in (a, b))))
    return row


def run_evaluate(cfg: PipelineConfig) -> list[Path]:
    """Cohort tests for evolution and retraction, plus correlation matrices.

    Parses the change records and reads the rest from compute's record,
    whose scores it fuses as `fuse` does.
    """
    changes = _parse(_require(cfg.changes, "changes"), parse_changes) if cfg.changes else []
    a = _record(cfg, "hierarchy", "articles")
    rrf, rank, _ = _fused(a["level"], a["aspect_rank"], cfg.rrf_k)
    members = np.split(a["ids"], a["indptr"][1:-1])  # each window month's sampled ids
    descriptors, n = a["descriptors"].tolist(), len(a["codes"])
    descriptor_nodes = pattern(a["descriptor_indptr"], a["descriptor_indices"], n)
    sampled_rows = pattern(a["sampled_indptr"], a["sampled_indices"], n)
    # window month x series x node: the aspects, then the fused relevance
    values = np.concatenate([a["values"], rrf[:, None]], axis=1)
    scored = np.concatenate([a["aspect_rank"] > 0, rank[:, None] > 0], axis=1)
    month_years = np.array([year_of(m) for m in cfg.window()])
    series_names = list(ASPECTS) + [RELEVANCE]
    out = Path(cfg.output_dir)
    chash = cfg.config_hash()
    written = [out / "evolution_tests.json", out / "retraction_tests.json"]

    # Evolution: one test per (release, aspect) on per-descriptor yearly means.
    evolution_rows: list[dict] = []
    for release in sorted({c.release for c in changes}):
        in_year = month_years == int(release[:4])
        reason = "empty cohort" if in_year.any() else "no window months"
        changed = {c.descriptor_id for c in changes if c.release == release}
        for s, name in enumerate(series_names):
            # node values averaged over the release year's months (summed one
            # month at a time), then summed per descriptor inside evolution_cohorts
            sums, counts = values[in_year, s].sum(axis=0), scored[in_year, s].sum(axis=0)
            means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
            cohorts = evaluate.evolution_cohorts(descriptors, descriptor_nodes, means, counts > 0,
                                                 changed)
            keys = ("mean_evolving", "mean_stable")
            evolution_rows.append(
                _cohort_test(*cohorts, keys, reason, release=release, aspect=name)
            )
    _write_json(written[0], {"config_hash": chash, "results": evolution_rows})

    # Retraction: one test per (year, aspect) on yearly per-article means.
    # The year's members, as rows of the window's sampled articles, serve every series.
    retraction_rows: list[dict] = []
    for year in np.unique(month_years).tolist():
        in_year = month_years == year
        member_rows = [np.searchsorted(a["sampled_ids"], m) for m, y in zip(members, in_year) if y]
        for s, name in enumerate(series_names):
            cohorts = evaluate.retraction_split(sampled_rows, a["retracted"], member_rows,
                                                values[in_year, s])
            keys = ("mean_retracted", "mean_other")
            retraction_rows.append(_cohort_test(*cohorts, keys, year=year, aspect=name))
    _write_json(written[1], {"config_hash": chash, "results": retraction_rows})

    # Correlation across aspects + fused relevance on (descriptor, month)
    # pairs scored in every series.  Each series is laid out descriptor-major,
    # month-minor, which is the sorted order of those pairs.
    by_descriptor = [
        evaluate.descriptor_sums(descriptor_nodes, values[:, s].T, scored[:, s].T)
        for s in range(len(series_names))
    ]
    in_all = np.logical_and.reduce([given.ravel() for _, given in by_descriptor])
    aligned = np.vstack([sums.ravel() for sums, _ in by_descriptor])[:, in_all]
    for method in ("pearson", "spearman"):
        cpath = out / f"correlation_{method}.csv"
        written.append(cpath)
        try:
            matrix = evaluate.correlation_matrix(aligned, method=method)
        except evaluate.EvaluationError as exc:
            write_rows(cpath, f"# skipped: {exc}", [], chash)
            continue
        cells = [part for column in matrix.T for part in (b",", float_text(column))]
        rows = text_rows(np.array(series_names, dtype="S"), *cells, b"\n")
        write_rows(cpath, ",".join(["series", *series_names]), [rows], chash)
    return written
