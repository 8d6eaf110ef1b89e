"""End-to-end batch pipeline behind the CLI subcommands.

compute -> per-month aspect score CSVs (+ sampled-member lists + manifest)
fuse    -> fused rankings per month, global and per level
trend   -> yearly-average rank slopes and top/bottom tables
evaluate-> Mann-Whitney cohort tests and aspect correlation matrices

Downstream stages read the scores back as window month x aspect x node
arrays, in `ASPECTS` order, and the rankings as window month x node arrays.

Every output file carries the config hash in a header comment, and all
orderings are pinned so reruns (at any thread count) are byte-identical.
"""
from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse

from . import citegraph, evaluate, fusion, graphmetrics, infometrics, propagation
from .config import PipelineConfig
from .corpus import ArticleStore, parse_articles
from .evaluate import ChangeRecord
from .hierarchy import Hierarchy, HierarchyParseReport, parse_hierarchy
from .months import year_of
from .scores import ASPECTS, RELEVANCE, read_rows, read_scores_csv, write_scores_csv

RANKINGS_HEADER = "month,scope,tree_code,rrf_value,rank"


class PipelineError(RuntimeError):
    pass


@dataclass
class AnnotationData:
    """Every input but the citations: the hierarchy, the articles with their
    article x node incidence, and the change records."""

    hierarchy: Hierarchy
    hierarchy_report: HierarchyParseReport
    store: ArticleStore
    changes: list[ChangeRecord]
    # article x node: rows over store.ids, columns over hierarchy.codes
    incidence: sparse.csr_matrix = field(init=False, repr=False)
    unknown_descriptor_refs: int = field(init=False)

    def __post_init__(self) -> None:
        self.incidence, self.unknown_descriptor_refs = self.hierarchy.incidence(
            [self.store.articles[i].descriptors for i in self.store.ids.tolist()]
        )


@dataclass
class IngestData(AnnotationData):
    """All inputs: the annotation data plus the citation graph."""

    graph: citegraph.CitationGraph

    def report_lines(self) -> list[str]:
        g = self.graph
        return [
            f"hierarchy nodes: {len(self.hierarchy.nodes)}",
            f"descriptors mapped: {len(self.hierarchy.descriptor_map)}",
            f"auto-created codes: {self.hierarchy_report.autocreated_codes}",
            f"articles: {len(self.store)}",
            f"unknown descriptor references: {self.unknown_descriptor_refs}",
            f"edges kept: {g.num_edges}",
            f"self-loops dropped: {g.self_loops_dropped}",
            f"unknown-endpoint edges dropped: {g.unknown_dropped}",
            f"duplicate edges dropped: {g.duplicates_dropped}",
            f"change records: {len(self.changes)}",
        ]


def _require(path: str, what: str) -> Path:
    if not path:
        raise PipelineError(f"config does not set the {what} path")
    p = Path(path)
    if not p.exists():
        raise PipelineError(f"{what} file not found: {p}")
    return p


def _read_hierarchy(cfg: PipelineConfig) -> tuple[Hierarchy, HierarchyParseReport]:
    with _require(cfg.hierarchy, "hierarchy").open() as fh:
        return parse_hierarchy(fh)


def _read_annotations(
    cfg: PipelineConfig,
) -> tuple[Hierarchy, HierarchyParseReport, ArticleStore, list[ChangeRecord]]:
    hierarchy, hreport = _read_hierarchy(cfg)
    with _require(cfg.articles, "articles").open() as fh:
        store = parse_articles(fh)
    changes: list[ChangeRecord] = []
    if cfg.changes:
        with _require(cfg.changes, "changes").open() as fh:
            changes = evaluate.parse_changes(fh)
    return hierarchy, hreport, store, changes


def load_annotations(cfg: PipelineConfig) -> AnnotationData:
    """Parse every configured input but the citations."""
    return AnnotationData(*_read_annotations(cfg))


def ingest(cfg: PipelineConfig) -> IngestData:
    """Parse and cross-validate all configured inputs."""
    # A wrong path fails before any file is parsed, in the order they are read.
    _require(cfg.hierarchy, "hierarchy")
    _require(cfg.articles, "articles")
    if cfg.changes:
        _require(cfg.changes, "changes")
    cpath = _require(cfg.citations, "citations")
    hierarchy, hreport, store, changes = _read_annotations(cfg)
    with cpath.open() as fh:
        edges = citegraph.parse_citations(fh)
    graph = citegraph.build_graph(edges, store)
    return IngestData(hierarchy, hreport, store, changes, graph)


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
    snapshot = citegraph.cumulative_snapshot(data.graph, data.store, month)
    sampled = citegraph.sample_nodes(snapshot, cfg.sample_fraction, seed)
    rows = data.incidence[np.searchsorted(data.store.ids, sampled.node_ids)]
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

    month_ids = data.store.articles_in_month(month)
    closed = data.incidence[np.searchsorted(data.store.ids, month_ids)] @ h.closure
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
    """Run compute_month over the window and write scores, members, manifest.

    Nothing is written until every month has succeeded, so failures leave
    no partial outputs behind.
    """
    data = ingest(cfg)
    window = cfg.window()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(
                pool.map(lambda im: compute_month(cfg, data, im[1], im[0]), enumerate(window))
            )
    else:
        results = [compute_month(cfg, data, m, i) for i, m in enumerate(window)]
    for result in results:
        if not result.converged:
            print(
                f"warning: {result.month}: PageRank did not converge within "
                f"pagerank_max_iter = {cfg.pagerank_max_iter} iterations",
                file=sys.stderr,
            )

    out = Path(cfg.output_dir)
    (out / "scores").mkdir(parents=True, exist_ok=True)
    (out / "members").mkdir(parents=True, exist_ok=True)
    chash = cfg.config_hash()
    written: list[str] = []
    for result in results:
        for aspect, values, scored in zip(ASPECTS, result.values, result.scored):
            path = out / "scores" / f"{aspect}_{result.month}.csv"
            with path.open("w") as fh:
                write_scores_csv(data.hierarchy, aspect, result.month, values, scored, fh, chash)
            written.append(str(path))
        mpath = out / "members" / f"{result.month}.csv"
        with mpath.open("w") as fh:
            fh.write(f"# config_hash={chash}\narticle_id\n")
            for article_id in result.member_ids:
                fh.write(f"{int(article_id)}\n")
        written.append(str(mpath))

    manifest = {
        "config_hash": chash,
        "months": window,
        "seeds": {r.month: r.seed for r in results},
        "sample_fraction": cfg.sample_fraction,
        "counts": {
            "articles": len(data.store),
            "graph_edges": data.graph.num_edges,
            "hierarchy_nodes": len(data.hierarchy.nodes),
        },
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    written.append(str(out / "manifest.json"))
    return written


def _load_scores(cfg: PipelineConfig, h: Hierarchy) -> tuple[np.ndarray, np.ndarray]:
    """The node values and the scored mask over window month x aspect x node,
    read back from the compute outputs one month at a time."""
    out = Path(cfg.output_dir)
    window = cfg.window()
    values = np.zeros((len(window), len(ASPECTS), len(h.codes)))
    scored = np.zeros(values.shape, dtype=bool)
    for k, month in enumerate(window):
        for s, aspect in enumerate(ASPECTS):
            path = out / "scores" / f"{aspect}_{month}.csv"
            if not path.exists():
                raise PipelineError(f"missing compute output: {path}")
            values[k, s], scored[k, s] = read_scores_csv(h, path, aspect, month)
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
    out = Path(cfg.output_dir)
    path = out / "rankings.csv"
    with path.open("w") as fh:
        fh.write(f"# config_hash={cfg.config_hash()}\n")
        fh.write(RANKINGS_HEADER + "\n")
        for k, month in enumerate(cfg.window()):
            ranks = [fusion.rank_by_aspect(v, s) for v, s in zip(values[k], scored[k])]
            rrf = fusion.rrf_fuse(ranks, k=cfg.rrf_k)
            text = [format(v, ".17g") for v in rrf.tolist()]
            for scope, members in _scopes(h, rrf > 0):  # ranked by some aspect
                rank = fusion.rank_by_aspect(rrf, members)
                for r, i in sorted(zip(rank[members].tolist(), np.flatnonzero(members).tolist())):
                    fh.write(f"{month},{scope},{h.codes[i]},{text[i]},{r}\n")
    return path


def _load_rankings(cfg: PipelineConfig, h: Hierarchy) -> tuple[np.ndarray, ...]:
    """The fused value, the global rank and the rank inside the node's level
    scope, each over window month x node position; 0 where a node is unranked.

    Each (month, scope) must rank its nodes 1..n, and the level scopes must
    rank exactly the nodes that the global scope ranks."""
    path = Path(cfg.output_dir) / "rankings.csv"
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

    trends_path = out / "trends.csv"
    with trends_path.open("w") as fh:
        fh.write(f"# config_hash={chash}\n")
        fh.write("tree_code,level,slope,first_year,last_year\n")
        for years, yearly, _ in means.values():
            for i, slope, y0, y1 in zip(*(a.tolist() for a in fusion.rank_trend_slope(yearly))):
                fh.write(
                    f"{h.codes[i]},{h.level[i]},{format(slope, '.17g')},{years[y0]},{years[y1]}\n"
                )

    tables_path = out / "tables.csv"
    with tables_path.open("w") as fh:
        fh.write(f"# config_hash={chash}\n")
        fh.write("scope,kind,position,tree_code,mean_rank\n")
        for scope, (_, _, window_means) in means.items():
            values = window_means.tolist()
            for kind, sign in (("top", 1), ("bottom", -1)):
                nodes = fusion.top_k(sign * window_means, table_k).tolist()
                for position, i in enumerate(nodes, start=1):
                    value = format(values[i], ".17g")
                    fh.write(f"{scope},{kind},{position},{h.codes[i]},{value}\n")
    return trends_path, tables_path


def _load_members(cfg: PipelineConfig) -> list[np.ndarray]:
    """The sampled article ids of each window month, in window order."""
    out = Path(cfg.output_dir)
    members = []
    for month in cfg.window():
        path = out / "members" / f"{month}.csv"
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
    data = load_annotations(cfg)
    h = data.hierarchy
    # window month x series x node: the aspects, then the fused relevance
    values, scored = _load_scores(cfg, h)
    rrf, rank, _ = _load_rankings(cfg, h)
    values = np.concatenate([values, rrf[:, None]], axis=1)
    scored = np.concatenate([scored, rank[:, None] > 0], axis=1)
    members = _load_members(cfg)
    month_years = np.array([year_of(m) for m in cfg.window()])
    series_names = list(ASPECTS) + [RELEVANCE]
    out = Path(cfg.output_dir)
    chash = cfg.config_hash()
    written: list[Path] = []

    def write_tests(name: str, rows: list[dict]) -> None:
        tests = {"config_hash": chash, "results": rows}
        (out / name).write_text(json.dumps(tests, indent=2, sort_keys=True) + "\n")
        written.append(out / name)

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
    write_tests("evolution_tests.json", evolution_rows)

    # Retraction: one test per (year, aspect) on yearly per-article means.
    # The year's sampled members and their incidence rows serve every series.
    retraction_rows: list[dict] = []
    for year in np.unique(month_years).tolist():
        in_year = month_years == year
        member_ids = [m for m, y in zip(members, in_year) if y]
        ids = np.unique(np.concatenate(member_ids))
        if not np.isin(ids, data.store.ids).all():
            raise PipelineError(f"members of {year} include ids missing from the articles file")
        rows = data.incidence[np.searchsorted(data.store.ids, ids)]
        retracted = np.array([data.store.articles[i].retracted for i in ids.tolist()], dtype=bool)
        member_rows = [np.searchsorted(ids, m) for m in member_ids]
        for s, name in enumerate(series_names):
            cohorts = evaluate.retraction_split(rows, retracted, member_rows, values[in_year, s])
            keys = ("mean_retracted", "mean_other")
            retraction_rows.append(_cohort_test(*cohorts, keys, year=year, aspect=name))
    write_tests("retraction_tests.json", retraction_rows)

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
        try:
            matrix = evaluate.correlation_matrix(aligned, method=method)
        except evaluate.EvaluationError as exc:
            cpath.write_text(f"# config_hash={chash}\n# skipped: {exc}\n")
            written.append(cpath)
            continue
        with cpath.open("w") as fh:
            fh.write(f"# config_hash={chash}\n")
            fh.write("series," + ",".join(series_names) + "\n")
            for i, name in enumerate(series_names):
                row = ",".join(format(matrix[i, j], ".17g") for j in range(len(series_names)))
                fh.write(f"{name},{row}\n")
        written.append(cpath)
    return written
