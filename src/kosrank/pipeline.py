"""End-to-end batch pipeline behind the CLI subcommands.

compute -> per-month aspect score CSVs (+ sampled-member lists + manifest)
fuse    -> fused rankings per month, global and per level
trend   -> yearly-average rank slopes and top/bottom tables
evaluate-> Mann-Whitney cohort tests and aspect correlation matrices

Every output file carries the config hash in a header comment, and all
orderings are pinned so reruns (at any thread count) are byte-identical.
"""
from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse

from . import citegraph, evaluate, fusion, graphmetrics, infometrics, propagation
from .config import PipelineConfig
from .corpus import ArticleStore, parse_articles
from .evaluate import ChangeRecord
from .hierarchy import Hierarchy, HierarchyParseReport, level_of, parse_hierarchy
from .months import year_of
from .scores import ASPECTS, RELEVANCE, AspectScores, read_scores_csv, write_scores_csv


class PipelineError(RuntimeError):
    pass


@dataclass
class IngestData:
    hierarchy: Hierarchy
    hierarchy_report: HierarchyParseReport
    store: ArticleStore
    graph: citegraph.CitationGraph
    changes: list[ChangeRecord]
    # article x node: rows over store.ids, columns over hierarchy.codes
    incidence: sparse.csr_matrix = field(init=False, repr=False)
    unknown_descriptor_refs: int = field(init=False)

    def __post_init__(self) -> None:
        self.incidence, self.unknown_descriptor_refs = self.hierarchy.incidence(
            [self.store.articles[i].descriptors for i in self.store.ids.tolist()]
        )

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


def ingest(cfg: PipelineConfig) -> IngestData:
    """Parse and cross-validate all configured inputs."""
    hpath = _require(cfg.hierarchy, "hierarchy")
    apath = _require(cfg.articles, "articles")
    cpath = _require(cfg.citations, "citations")
    with hpath.open() as fh:
        hierarchy, hreport = parse_hierarchy(fh)
    with apath.open() as fh:
        store = parse_articles(fh)
    with cpath.open() as fh:
        edges = citegraph.parse_citations(fh)
    graph = citegraph.build_graph(edges, store)

    changes: list[ChangeRecord] = []
    if cfg.changes:
        chpath = Path(cfg.changes)
        if chpath.exists():
            with chpath.open() as fh:
                changes = evaluate.parse_changes(fh)

    return IngestData(hierarchy, hreport, store, graph, changes)


@dataclass
class MonthResult:
    month: str
    seed: int
    member_ids: np.ndarray
    scores: dict[str, AspectScores]


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
    member_codes = {
        article_id: tuple(h.codes[j] for j in columns)
        for article_id, columns in zip(
            sampled.node_ids.tolist(), np.split(rows.indices, rows.indptr[1:-1])
        )
        if len(columns)
    }

    influence_scores = graphmetrics.pagerank(
        sampled, alpha=cfg.pagerank_alpha, tol=cfg.pagerank_tol, max_iter=cfg.pagerank_max_iter
    )
    disruption_scores = graphmetrics.disruption_all(sampled)

    results: dict[str, AspectScores] = {}
    for aspect, article_scores in (
        ("influence", influence_scores),
        ("disruptiveness", disruption_scores),
    ):
        if article_scores.graph_size_m > 0:
            seeds = graphmetrics.aggregate_to_nodes(article_scores, member_codes)
            values = propagation.propagate(h, seeds)
        else:
            values = {}
        results[aspect] = AspectScores(aspect=aspect, month=month, values=values)

    month_ids = sorted(data.store.articles_in_month(month))
    incidence = data.incidence[np.searchsorted(data.store.ids, month_ids)]
    closed = incidence @ h.closure
    counts = infometrics.subtree_counts(h, incidence, closed)
    results["informativeness"] = AspectScores(
        aspect="informativeness",
        month=month,
        values=infometrics.informativeness(counts, mode=cfg.informativeness_mode),
    )
    usefulness = infometrics.category_utility(closed, len(h.codes))
    results["usefulness"] = AspectScores(
        aspect="usefulness", month=month, values=dict(zip(h.codes, usefulness.tolist()))
    )
    return MonthResult(month=month, seed=seed, member_ids=sampled.node_ids, scores=results)


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

    out = Path(cfg.output_dir)
    (out / "scores").mkdir(parents=True, exist_ok=True)
    (out / "members").mkdir(parents=True, exist_ok=True)
    chash = cfg.config_hash()
    written: list[str] = []
    for result in results:
        for aspect in ASPECTS:
            path = out / "scores" / f"{aspect}_{result.month}.csv"
            with path.open("w") as fh:
                write_scores_csv(result.scores[aspect], fh, config_hash=chash)
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


def _load_scores(cfg: PipelineConfig) -> dict[str, dict[str, dict[str, float]]]:
    """aspect -> month -> node values, read back from the compute outputs."""
    out = Path(cfg.output_dir)
    table: dict[str, dict[str, dict[str, float]]] = {a: {} for a in ASPECTS}
    for month in cfg.window():
        for aspect in ASPECTS:
            path = out / "scores" / f"{aspect}_{month}.csv"
            if not path.exists():
                raise PipelineError(f"missing compute output: {path}")
            with path.open() as fh:
                table[aspect][month] = read_scores_csv(fh).values
    return table


def fuse(cfg: PipelineConfig) -> Path:
    """Fuse per-aspect rankings per month; write global and per-level rows."""
    table = _load_scores(cfg)
    out = Path(cfg.output_dir)
    path = out / "rankings.csv"
    with path.open("w") as fh:
        fh.write(f"# config_hash={cfg.config_hash()}\n")
        fh.write("month,scope,tree_code,rrf_value,rank\n")
        for month in cfg.window():
            ranks = {a: fusion.rank_by_aspect(table[a][month]) for a in ASPECTS}
            fused = fusion.rrf_fuse(ranks, k=cfg.rrf_k, month=month)
            rankings = [fused]
            levels = sorted({level_of(c) for c in fused.rrf})
            rankings.extend(fusion.per_level_ranking(fused, lvl) for lvl in levels)
            for ranking in rankings:
                for code in sorted(ranking.rank, key=ranking.rank.get):
                    fh.write(
                        f"{month},{ranking.scope},{code},"
                        f"{format(ranking.rrf[code], '.17g')},{ranking.rank[code]}\n"
                    )
    return path


def _load_rankings(cfg: PipelineConfig) -> dict[tuple[str, str], dict[str, tuple[float, int]]]:
    """(month, scope) -> code -> (rrf, rank)."""
    path = Path(cfg.output_dir) / "rankings.csv"
    if not path.exists():
        raise PipelineError(f"missing fuse output: {path}")
    table: dict[tuple[str, str], dict[str, tuple[float, int]]] = {}
    for line in path.read_text().splitlines():
        if not line or line.startswith("#") or line.startswith("month,"):
            continue
        month, scope, code, rrf_value, rank = line.split(",")
        table.setdefault((month, scope), {})[code] = (float(rrf_value), int(rank))
    return table


def trend(cfg: PipelineConfig, table_k: int = 10) -> tuple[Path, Path]:
    """Write rank-trend slopes (yearly mean ranks) and top/bottom tables."""
    rankings = _load_rankings(cfg)
    window = cfg.window()
    years = sorted({year_of(m) for m in window})
    scopes = sorted({scope for _, scope in rankings if scope != "global"})
    out = Path(cfg.output_dir)
    chash = cfg.config_hash()

    trends_path = out / "trends.csv"
    with trends_path.open("w") as fh:
        fh.write(f"# config_hash={chash}\n")
        fh.write("tree_code,level,slope,first_year,last_year\n")
        for scope in scopes:
            yearly: dict[int, dict[str, float]] = {}
            for year in years:
                months = [m for m in window if year_of(m) == year]
                monthly = [
                    {c: rank for c, (_, rank) in rankings[(m, scope)].items()}
                    for m in months
                    if (m, scope) in rankings
                ]
                if monthly:
                    yearly[year] = fusion.mean_ranks(monthly)
            codes = sorted({c for means in yearly.values() for c in means})
            for code in codes:
                series = [(y, yearly[y][code]) for y in sorted(yearly) if code in yearly[y]]
                if len(series) < 2:
                    continue
                slope = fusion.rank_trend_slope([rank for _, rank in series])
                fh.write(
                    f"{code},{level_of(code)},{format(slope, '.17g')},"
                    f"{series[0][0]},{series[-1][0]}\n"
                )

    tables_path = out / "tables.csv"
    with tables_path.open("w") as fh:
        fh.write(f"# config_hash={chash}\n")
        fh.write("scope,kind,position,tree_code,mean_rank\n")
        for scope in scopes:
            monthly = [
                {c: rank for c, (_, rank) in rankings[(m, scope)].items()}
                for m in window
                if (m, scope) in rankings
            ]
            if not monthly:
                continue
            means = fusion.mean_ranks(monthly)
            for kind, codes in (
                ("top", fusion.top_k_by_mean_rank(means, table_k)),
                ("bottom", fusion.bottom_k_by_mean_rank(means, table_k)),
            ):
                for position, code in enumerate(codes, start=1):
                    fh.write(
                        f"{scope},{kind},{position},{code},{format(means[code], '.17g')}\n"
                    )
    return trends_path, tables_path


def _relevance_by_month(cfg: PipelineConfig) -> dict[str, dict[str, float]]:
    rankings = _load_rankings(cfg)
    return {
        month: {c: rrf for c, (rrf, _) in rankings[(month, "global")].items()}
        for month in cfg.window()
        if (month, "global") in rankings
    }


def _load_members(cfg: PipelineConfig) -> dict[str, list[int]]:
    out = Path(cfg.output_dir)
    members: dict[str, list[int]] = {}
    for month in cfg.window():
        path = out / "members" / f"{month}.csv"
        if not path.exists():
            raise PipelineError(f"missing compute output: {path}")
        ids = [
            int(line)
            for line in path.read_text().splitlines()
            if line and not line.startswith("#") and line != "article_id"
        ]
        members[month] = ids
    return members


def _test_row(result: evaluate.TestResult | None, **labels) -> dict:
    row = dict(labels)
    if result is None:
        row["status"] = "skipped"
    else:
        row.update(
            status="ok",
            u=result.u_statistic,
            p=result.p_value,
            n1=result.n1,
            n2=result.n2,
            method=result.method,
        )
    return row


def run_evaluate(cfg: PipelineConfig) -> list[Path]:
    """Cohort tests for evolution and retraction, plus correlation matrices."""
    data = ingest(cfg)
    h = data.hierarchy
    table = _load_scores(cfg)
    relevance = _relevance_by_month(cfg)
    members = _load_members(cfg)
    window = cfg.window()
    out = Path(cfg.output_dir)
    chash = cfg.config_hash()
    written: list[Path] = []

    series_names = list(ASPECTS) + [RELEVANCE]

    def month_values(name: str, month: str) -> dict[str, float]:
        return relevance.get(month, {}) if name == RELEVANCE else table[name].get(month, {})

    # Evolution: one test per (release, aspect) on per-descriptor yearly means.
    evolution_rows: list[dict] = []
    releases = sorted({c.release for c in data.changes})
    for release in releases:
        release_year = int(release[:4])
        months = [m for m in window if year_of(m) == release_year]
        release_changes = [c for c in data.changes if c.release == release]
        for name in series_names:
            if not months:
                evolution_rows.append(
                    _test_row(None, release=release, aspect=name, reason="no window months")
                )
                continue
            # node values averaged over the release year's months, then
            # summed per descriptor inside evolution_cohorts
            vectors = [h.node_vector(month_values(name, month)) for month in months]
            sums = sum(values for values, _ in vectors)
            counts = sum(given.astype(np.int64) for _, given in vectors)
            node_means = {h.codes[i]: sums[i] / counts[i] for i in np.flatnonzero(counts)}
            evolving, stable = evaluate.evolution_cohorts(node_means, release_changes, h)
            if not evolving or not stable:
                evolution_rows.append(
                    _test_row(None, release=release, aspect=name, reason="empty cohort")
                )
            else:
                result = evaluate.mann_whitney(evolving, stable)
                row = _test_row(result, release=release, aspect=name)
                row["mean_evolving"] = sum(evolving) / len(evolving)
                row["mean_stable"] = sum(stable) / len(stable)
                evolution_rows.append(row)
    epath = out / "evolution_tests.json"
    epath.write_text(
        json.dumps({"config_hash": chash, "results": evolution_rows}, indent=2, sort_keys=True)
        + "\n"
    )
    written.append(epath)

    # Retraction: one test per (year, aspect) on yearly per-article means.
    retraction_rows: list[dict] = []
    for year in sorted({year_of(m) for m in window}):
        for name in series_names:
            monthly_values = {
                m: month_values(name, m) for m in window if year_of(m) == year
            }
            retracted, other = evaluate.retraction_cohorts(
                data.store, monthly_values, members, h, year
            )
            if not retracted or not other:
                retraction_rows.append(
                    _test_row(None, year=year, aspect=name, reason="empty cohort")
                )
            else:
                result = evaluate.mann_whitney(retracted, other)
                row = _test_row(result, year=year, aspect=name)
                row["mean_retracted"] = sum(retracted) / len(retracted)
                row["mean_other"] = sum(other) / len(other)
                retraction_rows.append(row)
    rpath = out / "retraction_tests.json"
    rpath.write_text(
        json.dumps({"config_hash": chash, "results": retraction_rows}, indent=2, sort_keys=True)
        + "\n"
    )
    written.append(rpath)

    # Correlation across aspects + fused relevance on (descriptor, month) pairs.
    series: dict[str, dict[tuple[str, str], float]] = {name: {} for name in series_names}
    for name in series_names:
        for month in window:
            for d, v in evaluate.descriptor_scores(month_values(name, month), h).items():
                series[name][(d, month)] = v
    for method in ("pearson", "spearman"):
        try:
            names, matrix = evaluate.aspect_correlation(series, method=method)
        except evaluate.EvaluationError as exc:
            names, matrix = None, None
            cpath = out / f"correlation_{method}.csv"
            cpath.write_text(f"# config_hash={chash}\n# skipped: {exc}\n")
            written.append(cpath)
            continue
        cpath = out / f"correlation_{method}.csv"
        with cpath.open("w") as fh:
            fh.write(f"# config_hash={chash}\n")
            fh.write("series," + ",".join(names) + "\n")
            for i, name in enumerate(names):
                row = ",".join(format(matrix[i, j], ".17g") for j in range(len(names)))
                fh.write(f"{name},{row}\n")
        written.append(cpath)
    return written
