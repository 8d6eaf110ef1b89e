"""End-to-end batch pipeline behind the CLI subcommands.

compute -> per-month aspect score CSVs (+ sampled-member lists + manifest)
fuse    -> fused rankings per month, global and per level
trend   -> yearly-average rank slopes and top/bottom tables
evaluate-> Mann-Whitney cohort tests and aspect correlation matrices

Downstream stages read the scores back as window month x aspect x node
arrays, in `ASPECTS` order, and the rankings as window month x node arrays.

Every output file carries the config hash in a header comment, and all
orderings are pinned so reruns (at any thread count) are byte-identical.

`ingest`, `compute` and `fuse` also write `.npy` mirrors (see `mirror`) of
the arrays they parsed or computed: `ingest/`, `scores.*`, `members.*` and
`rankings.*`.
A later stage uses a mirror only while every source file's sha256 matches
its record; else it parses the text, with every check that parser makes.
"""
from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
from scipy import sparse

from . import citegraph, evaluate, fusion, graphmetrics, infometrics, mirror, propagation
from .config import PipelineConfig
from .corpus import ArticleColumns, CorpusError, parse_articles
from .evaluate import ChangeRecord
from .hierarchy import Hierarchy, HierarchyError, HierarchyParseReport, parse_hierarchy
from .months import month_index, normalize_month, year_of
from .scores import ASPECTS, RELEVANCE, read_rows, read_scores_csv, write_rows, write_scores_csv

RANKINGS_HEADER = "month,scope,tree_code,rrf_value,rank"
ANNOTATION_ARRAYS = ("ids", "month_idx", "retracted", "indptr", "indices", "data", "unknown")
GRAPH_ARRAYS = ("out_indptr", "out_targets", "in_indptr", "in_sources", "dropped")
STAGE_ARRAYS = {"scores": ("values", "scored"), "rankings": ("rrf", "global_rank", "level_rank"),
                "members": ("ids", "indptr")}


class PipelineError(RuntimeError):
    pass


@dataclass
class IngestData:
    """The parsed inputs: the hierarchy, the change records, the article
    columns with their article x node incidence, and the citation graph,
    None for a stage that does not read the citations."""

    hierarchy: Hierarchy
    hierarchy_report: HierarchyParseReport
    changes: list[ChangeRecord]
    ids: np.ndarray  # sorted article ids
    month_idx: np.ndarray  # each article's `months.month_index`
    retracted: np.ndarray  # bool
    incidence: sparse.csr_matrix  # article x node: rows over ids, columns over hierarchy.codes
    unknown_descriptor_refs: int
    graph: citegraph.CitationGraph | None = None

    def report_lines(self) -> list[str]:
        g = self.graph
        return [
            f"hierarchy nodes: {len(self.hierarchy.nodes)}",
            f"descriptors mapped: {len(self.hierarchy.descriptor_map)}",
            f"auto-created codes: {self.hierarchy_report.autocreated_codes}",
            f"articles: {len(self.ids)}",
            f"unknown descriptor references: {self.unknown_descriptor_refs}",
            f"edges kept: {g.num_edges}",
            f"self-loops dropped: {g.self_loops_dropped}",
            f"unknown-endpoint edges dropped: {g.unknown_dropped}",
            f"duplicate edges dropped: {g.duplicates_dropped}",
            f"change records: {len(self.changes)}",
        ]


def ingest_arrays(h: Hierarchy, articles: ArticleColumns, edges=None) -> dict[str, np.ndarray]:
    """The ingest mirror arrays of parsed inputs: the article columns, their
    incidence CSR on `h`, the unknown descriptor count and, given the edges,
    the graph's two CSRs and drop counters."""
    m, unknown = h.incidence(articles.vocabulary, articles.annotations)
    arrays = dict(ids=articles.ids, month_idx=articles.month_idx, retracted=articles.retracted,
                  indptr=m.indptr, indices=m.indices, data=m.data, unknown=np.array(unknown))
    if edges is not None:
        g = citegraph.build_graph(edges, articles)  # it reads only the sorted `ids`
        drops = [g.self_loops_dropped, g.unknown_dropped, g.duplicates_dropped]
        arrays.update(out_indptr=g.out_indptr, out_targets=g.out_targets, in_indptr=g.in_indptr,
                      in_sources=g.in_sources, dropped=np.array(drops))
    return arrays


def ingest_data(h: Hierarchy, report, changes, a: dict[str, np.ndarray]) -> IngestData:
    """The inputs that `ingest_arrays` laid out."""
    incidence = sparse.csr_matrix((a["data"], a["indices"], a["indptr"]),
                                  shape=(len(a["ids"]), len(h.codes)))
    graph = None
    if "dropped" in a:
        csrs = (a[k] for k in GRAPH_ARRAYS[:4])
        graph = citegraph.CitationGraph(a["ids"], *csrs, *a["dropped"].tolist())
    columns = (a["ids"], a["month_idx"], a["retracted"], incidence, int(a["unknown"]))
    return IngestData(h, report, changes, *columns, graph)


def _require(path: str, what: str) -> Path:
    if not path:
        raise PipelineError(f"config does not set the {what} path")
    p = Path(path)
    if not p.exists():
        raise PipelineError(f"{what} file not found: {p}")
    return p


def _parse(path: Path, parser):
    """`parser` of the open file at `path`; an input error names the path."""
    with path.open() as fh:
        try:
            return parser(fh)
        except (CorpusError, citegraph.GraphError, HierarchyError, evaluate.EvaluationError) as exc:
            raise type(exc)(f"{path}: {exc}") from None


def _read_hierarchy(cfg: PipelineConfig) -> tuple[Hierarchy, HierarchyParseReport]:
    return _parse(_require(cfg.hierarchy, "hierarchy"), parse_hierarchy)


def ingest(cfg: PipelineConfig, citations: bool = True, save: bool = True) -> IngestData:
    """Parse and cross-validate the configured inputs, the citations if
    `citations`, and with `save` mirror the parsed arrays under
    `<output_dir>/ingest/`.  Without `save`, the arrays come from those
    mirrors while they match their sources, else from parsing."""
    names = ["hierarchy", "articles", "changes", "citations"][: 3 + citations]
    # A wrong path fails before any file is parsed, in the order they are read.
    paths = {n: _require(getattr(cfg, n), n) for n in names if n != "changes" or cfg.changes}
    digest = mirror.digests(paths.values())
    of = lambda *keys: {str(paths[k]): digest[str(paths[k])] for k in keys if k in paths}  # noqa: E731
    hierarchy, report = _parse(paths["hierarchy"], parse_hierarchy)
    at = Path(cfg.output_dir) / "ingest"
    mirrors = [(at / "annotations", ANNOTATION_ARRAYS, of("hierarchy", "articles", "changes"), {}),
               (at / "graph", GRAPH_ARRAYS, of("articles", "citations"), {})][: 1 + citations]
    arrays = None
    if not save:
        parts = [mirror.load(*m) for m in mirrors]
        arrays = None if None in parts else {k: v for part in parts for k, v in part.items()}
    articles = _parse(paths["articles"], parse_articles) if arrays is None else None
    changes = _parse(paths["changes"], evaluate.parse_changes) if "changes" in paths else []
    if arrays is None:
        edges = _parse(paths["citations"], citegraph.parse_citations) if citations else None
        arrays = ingest_arrays(hierarchy, articles, edges)
    if save:
        for stem, keys, sources, meta in mirrors:
            mirror.save(stem, {k: arrays[k] for k in keys}, sources, meta)
    return ingest_data(hierarchy, report, changes, arrays)


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
    if threads == 1:  # in this thread: a worker thread would add its own malloc arena
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

    out = Path(cfg.output_dir)
    chash = cfg.config_hash()
    written: list[str] = []
    for result, mpath in zip(results, _member_paths(cfg)):
        for aspect, values, scored in zip(ASPECTS, result.values, result.scored):
            path = out / "scores" / f"{aspect}_{result.month}.csv"
            write_scores_csv(data.hierarchy, path, aspect, result.month, values, scored, chash)
            written.append(str(path))
        write_rows(mpath, "article_id", map(str, result.member_ids.tolist()), chash)
        written.append(str(mpath))

    manifest = {
        "config_hash": chash,
        "months": window,
        "seeds": {r.month: r.seed for r in results},
        "sample_fraction": cfg.sample_fraction,
        "counts": {
            "articles": len(data.ids),
            "graph_edges": data.graph.num_edges,
            "hierarchy_nodes": len(data.hierarchy.nodes),
        },
    }
    _write_json(out / "manifest.json", manifest)
    written.append(str(out / "manifest.json"))
    values, scored = np.array([r.values for r in results]), np.array([r.scored for r in results])
    # what read_scores_csv gives back: 0 where unscored, and "nan" as float("nan")
    values = np.where(scored, np.where(np.isnan(values), np.nan, values), 0.0)
    _stage_mirror(cfg, data.hierarchy, "scores", _score_paths(cfg), (values, scored))
    members = [r.member_ids for r in results]
    indptr = np.cumsum([0, *map(len, members)])
    _stage_mirror(cfg, data.hierarchy, "members", _member_paths(cfg),
                  (np.concatenate(members), indptr))
    return written


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _stage_mirror(cfg: PipelineConfig, h: Hierarchy, name: str, paths: list[Path], arrays=None):
    """Write `arrays` as the mirror of the stage outputs `paths`, which also
    depend on the hierarchy and the window.  Without `arrays`, the mirror's
    arrays, or None if a path is missing or the mirror does not match."""
    if arrays is None and not all(p.exists() for p in paths):
        return None
    stem, names = Path(cfg.output_dir) / name, STAGE_ARRAYS[name]
    sources = mirror.digests([cfg.hierarchy, *paths])
    meta = {"months": cfg.window(), "nodes": len(h.codes)}
    if arrays is not None:
        return mirror.save(stem, dict(zip(names, arrays)), sources, meta)
    loaded = mirror.load(stem, names, sources, meta)
    return loaded and tuple(loaded[k] for k in names)


def _score_paths(cfg: PipelineConfig) -> list[Path]:
    out = Path(cfg.output_dir) / "scores"
    return [out / f"{aspect}_{month}.csv" for month in cfg.window() for aspect in ASPECTS]


def _load_scores(cfg: PipelineConfig, h: Hierarchy) -> tuple[np.ndarray, np.ndarray]:
    """The node values and the scored mask over window month x aspect x node,
    from the score mirror, or else read back from the compute outputs one
    month at a time."""
    paths = _score_paths(cfg)
    mirrored = _stage_mirror(cfg, h, "scores", paths)
    if mirrored:
        return mirrored
    window = cfg.window()
    values = np.zeros((len(window), len(ASPECTS), len(h.codes)))
    scored = np.zeros(values.shape, dtype=bool)
    for path, (k, s) in zip(paths, np.ndindex(values.shape[:2])):
        if not path.exists():
            raise PipelineError(f"missing compute output: {path}")
        values[k, s], scored[k, s] = read_scores_csv(h, path, ASPECTS[s], window[k])
    return values, scored


def _scopes(h: Hierarchy, ranked: np.ndarray) -> list[tuple[str, np.ndarray]]:
    """The rankings scopes of the `ranked` nodes and each scope's member
    mask: global, then every level that holds a ranked node."""
    levels = np.unique(h.level[ranked]).tolist()
    return [("global", ranked)] + [(f"level-{lvl}", ranked & (h.level == lvl)) for lvl in levels]


def fuse(cfg: PipelineConfig) -> Path:
    """Fuse per-aspect rankings per month; write global and per-level rows."""
    h, _ = _read_hierarchy(cfg)
    values, scored = _load_scores(cfg, h)
    path = Path(cfg.output_dir) / "rankings.csv"
    # what _load_rankings reads back: the global rows' values and both ranks
    rrfs = np.zeros((len(values), len(h.codes)))
    ranks = np.zeros((2, *rrfs.shape), dtype=np.int64)
    rows = []
    for k, month in enumerate(cfg.window()):
        aspect_ranks = [fusion.rank_by_aspect(v, s) for v, s in zip(values[k], scored[k])]
        rrf = fusion.rrf_fuse(aspect_ranks, k=cfg.rrf_k)
        rrfs[k] = rrf  # 0 exactly where no aspect ranks the node
        text = [format(v, ".17g") for v in rrf.tolist()]
        for scope, members in _scopes(h, rrf > 0):  # ranked by some aspect
            rank = fusion.rank_by_aspect(rrf, members)
            ranks[int(scope != "global"), k, members] = rank[members]
            order = np.flatnonzero(members)[np.argsort(rank[members])].tolist()  # ranks 1..n
            rows += [f"{month},{scope},{h.codes[i]},{text[i]},{r}" for r, i in enumerate(order, 1)]
    write_rows(path, RANKINGS_HEADER, rows, cfg.config_hash())
    _stage_mirror(cfg, h, "rankings", [path], (rrfs, *ranks))
    return path


def _load_rankings(cfg: PipelineConfig, h: Hierarchy) -> tuple[np.ndarray, ...]:
    """The fused value, the global rank and the rank inside the node's level
    scope, each over window month x node position; 0 where a node is unranked.
    They come from the rankings mirror while it matches its sources.

    Each (month, scope) must rank its nodes 1..n, and the level scopes must
    rank exactly the nodes that the global scope ranks."""
    path = Path(cfg.output_dir) / "rankings.csv"
    mirrored = _stage_mirror(cfg, h, "rankings", [path])
    if mirrored:
        return mirrored
    if not path.exists():
        raise PipelineError(f"missing fuse output: {path}")
    row_of = {month: k for k, month in enumerate(cfg.window())}
    levels = h.level.tolist()
    rrf = np.zeros((len(row_of), len(h.codes)))
    global_rank, level_rank = np.zeros((2, *rrf.shape), dtype=np.int64)

    def parse(month: str, scope: str, code: str, value: str, rank: str) -> None:
        value, rank = float(value), int(rank)
        k, i = row_of.get(month), h.position.get(code)
        if k is None:
            raise ValueError(f"month {month} is outside the window")
        if i is None:
            raise ValueError(f"tree code {code} is not in the hierarchy")
        if scope not in ("global", f"level-{levels[i]}"):
            raise ValueError(f"scope {scope} does not hold tree code {code}")
        if rank < 1:
            raise ValueError(f"rank {rank} is below 1")
        ranks = global_rank if scope == "global" else level_rank
        if ranks[k, i]:
            raise ValueError(f"{month},{scope},{code} repeats an earlier row")
        ranks[k, i] = rank
        if scope == "global":
            rrf[k, i] = value

    read_rows(path, RANKINGS_HEADER, parse)
    for k, month in enumerate(row_of):
        ranked = global_rank[k] > 0
        if not np.array_equal(ranked, level_rank[k] > 0):
            raise PipelineError(f"{path}: {month}: level and global ranks cover different codes")
        for scope, members in _scopes(h, ranked):
            ranks = (global_rank if scope == "global" else level_rank)[k, members]
            if not np.array_equal(np.sort(ranks), np.arange(1, len(ranks) + 1)):
                raise PipelineError(f"{path}: {month},{scope}: ranks are not 1..{len(ranks)}")
    return rrf, global_rank, level_rank


def scope_mean_ranks(
    cfg: PipelineConfig, h: Hierarchy
) -> dict[str, tuple[list[int], np.ndarray, np.ndarray]]:
    """Level scope -> (the window's years, mean level rank per year x node,
    mean level rank per node over the window), from the fused rankings.

    A mean is 0 where the node is outside the scope or no month of that span
    ranks it.  Scopes ranked in no window month are left out.
    """
    _, _, level_rank = _load_rankings(cfg, h)
    month_years = np.array([year_of(m) for m in cfg.window()])
    years = np.unique(month_years).tolist()
    yearly = np.array([fusion.mean_ranks(level_rank[month_years == y]) for y in years])
    window_means = fusion.mean_ranks(level_rank)
    ranked_levels = np.unique(h.level[window_means > 0]).tolist()
    return {
        scope: (years, yearly * (h.level == lvl), window_means * (h.level == lvl))
        for scope, lvl in sorted((f"level-{lvl}", lvl) for lvl in ranked_levels)
    }


def trend(cfg: PipelineConfig, table_k: int = 10) -> tuple[Path, Path]:
    """Write rank-trend slopes (yearly mean ranks) and top/bottom tables."""
    h, _ = _read_hierarchy(cfg)
    means = scope_mean_ranks(cfg, h)
    out = Path(cfg.output_dir)
    chash = cfg.config_hash()

    trends = [
        f"{h.codes[i]},{h.level[i]},{format(slope, '.17g')},{years[y0]},{years[y1]}"
        for years, yearly, _ in means.values()
        for i, slope, y0, y1 in zip(*(a.tolist() for a in fusion.rank_trend_slope(yearly)))
    ]
    tables = [
        f"{scope},{kind},{position},{h.codes[i]},{format(float(window_means[i]), '.17g')}"
        for scope, (_, _, window_means) in means.items()
        for kind, sign in (("top", 1), ("bottom", -1))
        for position, i in enumerate(fusion.top_k(sign * window_means, table_k).tolist(), start=1)
    ]
    trends_path, tables_path = out / "trends.csv", out / "tables.csv"
    write_rows(trends_path, "tree_code,level,slope,first_year,last_year", trends, chash)
    write_rows(tables_path, "scope,kind,position,tree_code,mean_rank", tables, chash)
    return trends_path, tables_path


def _member_paths(cfg: PipelineConfig) -> list[Path]:
    return [Path(cfg.output_dir) / "members" / f"{month}.csv" for month in cfg.window()]


def _load_members(cfg: PipelineConfig, h: Hierarchy) -> list[np.ndarray]:
    """The sampled article ids of each window month, in window order, from
    the members mirror, or else read back from the compute outputs."""
    paths = _member_paths(cfg)
    mirrored = _stage_mirror(cfg, h, "members", paths)
    if mirrored:
        ids, indptr = mirrored
        return np.split(ids, indptr[1:-1])
    members = []
    for path in paths:
        if not path.exists():
            raise PipelineError(f"missing compute output: {path}")
        members.append(np.array(read_rows(path, "article_id", int), dtype=np.int64))
    return members


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
    row[mean_keys[0]], row[mean_keys[1]] = sum(a) / len(a), sum(b) / len(b)
    return row


def run_evaluate(cfg: PipelineConfig) -> list[Path]:
    """Cohort tests for evolution and retraction, plus correlation matrices.

    Reads the annotation data and the compute and fuse outputs; the
    citations are not read.
    """
    data = ingest(cfg, citations=False, save=False)
    h = data.hierarchy
    # window month x series x node: the aspects, then the fused relevance
    values, scored = _load_scores(cfg, h)
    rrf, rank, _ = _load_rankings(cfg, h)
    values = np.concatenate([values, rrf[:, None]], axis=1)
    scored = np.concatenate([scored, rank[:, None] > 0], axis=1)
    members = _load_members(cfg, h)
    month_years = np.array([year_of(m) for m in cfg.window()])
    series_names = list(ASPECTS) + [RELEVANCE]
    out = Path(cfg.output_dir)
    chash = cfg.config_hash()
    written = [out / "evolution_tests.json", out / "retraction_tests.json"]

    # Evolution: one test per (release, aspect) on per-descriptor yearly means.
    evolution_rows: list[dict] = []
    for release in sorted({c.release for c in data.changes}):
        in_year = month_years == int(release[:4])
        reason = "empty cohort" if in_year.any() else "no window months"
        changed = {c.descriptor_id for c in data.changes if c.release == release}
        for s, name in enumerate(series_names):
            # node values averaged over the release year's months (summed one
            # month at a time), then summed per descriptor inside evolution_cohorts
            sums, counts = values[in_year, s].sum(axis=0), scored[in_year, s].sum(axis=0)
            means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
            cohorts = evaluate.evolution_cohorts(h, means, counts > 0, changed)
            keys = ("mean_evolving", "mean_stable")
            evolution_rows.append(
                _cohort_test(*cohorts, keys, reason, release=release, aspect=name)
            )
    _write_json(written[0], {"config_hash": chash, "results": evolution_rows})

    # Retraction: one test per (year, aspect) on yearly per-article means.
    # The year's sampled members and their incidence rows serve every series.
    retraction_rows: list[dict] = []
    for year in np.unique(month_years).tolist():
        in_year = month_years == year
        member_ids = [m for m, y in zip(members, in_year) if y]
        ids = np.unique(np.concatenate(member_ids))
        if not np.isin(ids, data.ids).all():
            raise PipelineError(f"members of {year} include ids missing from the articles file")
        at = np.searchsorted(data.ids, ids)
        rows, retracted = data.incidence[at], data.retracted[at]
        member_rows = [np.searchsorted(ids, m) for m in member_ids]
        for s, name in enumerate(series_names):
            cohorts = evaluate.retraction_split(rows, retracted, member_rows, values[in_year, s])
            keys = ("mean_retracted", "mean_other")
            retraction_rows.append(_cohort_test(*cohorts, keys, year=year, aspect=name))
    _write_json(written[1], {"config_hash": chash, "results": retraction_rows})

    # Correlation across aspects + fused relevance on (descriptor, month)
    # pairs scored in every series.  Each series is laid out descriptor-major,
    # month-minor, which is the sorted order of those pairs.
    by_descriptor = [
        evaluate.descriptor_sums(h, values[:, s].T, scored[:, s].T)
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
        rows = [",".join([name, *(format(v, ".17g") for v in row)])
                for name, row in zip(series_names, matrix.tolist())]
        write_rows(cpath, ",".join(["series", *series_names]), rows, chash)
    return written
