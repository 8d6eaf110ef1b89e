"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is designed to finish well inside its stated
runtime budgets on a laptop-class machine.
"""
import json
import resource
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    codes_by_level,
    disruption_oracle,
    membership,
    pagerank_oracle,
    pair_arrays,
    propagate_oracle,
    random_seeds,
    random_temporal_graph,
    random_tree,
    store_from_articles,
    usefulness_oracle,
)
from kosrank import citegraph, evaluate, fusion, graphmetrics, synthgen
from kosrank.cli import main as cli_main
from kosrank.config import PipelineConfig, write_config
from kosrank.hierarchy import Hierarchy
from kosrank.infometrics import category_utility, informativeness, subtree_counts
from kosrank.months import month_from_index, month_index, year_of
from kosrank.pipeline import compute_month, ingest_arrays, ingest_data
from kosrank.propagation import propagate
from kosrank.scores import ASPECTS


def _report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nacceptance criterion {criterion}: {status} — {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_metric_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)

    # disruption vs. explicit set construction, exact, 100 random temporal DAGs
    for _ in range(100):
        _, g = random_temporal_graph(rng, 100)
        for focal in rng.choice(g.node_ids, size=12, replace=False):
            assert graphmetrics.disruption_of(g, int(focal)) == disruption_oracle(
                g, int(focal)
            )

    # pagerank vs. dense linear solve, 50 graphs up to 50 nodes
    max_pagerank_err = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 51))
        _, g = random_temporal_graph(rng, n)
        expected = pagerank_oracle(g)
        actual = graphmetrics.pagerank(g).values
        for node, value in expected.items():
            max_pagerank_err = max(max_pagerank_err, abs(actual[node] - value))
    assert max_pagerank_err < 1e-8

    # usefulness vs. dense double-loop brute force, 50 matrices up to 50x50
    max_cu_err = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 51))
        m = int(rng.integers(1, 51))
        rows = {
            f"A{i:02d}": frozenset(int(j) for j in range(m) if rng.random() < 0.3)
            for i in range(1, n + 1)
        }
        expected = usefulness_oracle(rows, n)
        marks, _ = membership([rows[c] for c in sorted(rows)], {j: j for j in range(m)}, m)
        for code, value in zip(sorted(rows), category_utility(marks.T, n).tolist()):
            max_cu_err = max(max_cu_err, abs(value - expected[code]))
    assert max_cu_err < 1e-12

    # per-level entropy-term sums equal the level's Shannon entropy
    max_entropy_err = 0.0
    for _ in range(25):
        h = random_tree(rng, max_nodes=80)
        groups: list[list[str]] = [[] for _ in range(400)]
        for _ in range(150):
            groups[int(rng.integers(400))].append(h.codes[int(rng.integers(len(h.codes)))])
        incidence, _ = membership(groups, h.position, len(h.codes))
        counts = subtree_counts(incidence @ h.closure)
        values = dict(zip(h.codes, informativeness(h, counts)[0].tolist()))
        propagated = dict(zip(h.codes, counts.tolist()))
        for level, level_codes in codes_by_level(h).items():
            total = sum(propagated[c] for c in level_codes)
            if total == 0:
                continue
            level_sum = sum(values[c] for c in level_codes)
            entropy = -sum(
                p * np.log2(p)
                for c in level_codes
                if (p := propagated[c] / total) > 0
            )
            max_entropy_err = max(max_entropy_err, abs(level_sum - entropy))
    assert max_entropy_err < 1e-12

    elapsed = time.perf_counter() - start
    _report(
        1,
        elapsed < 60,
        f"disruption exact, pagerank |Δ|={max_pagerank_err:.2e}, "
        f"usefulness |Δ|={max_cu_err:.2e}, entropy |Δ|={max_entropy_err:.2e}, "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_propagation_equivalence():
    rng = np.random.default_rng(2002)
    max_err = 0.0
    for _ in range(100):
        h = random_tree(rng, max_nodes=200, max_depth=6)
        seeds = random_seeds(rng, h)
        actual = propagate(h, seeds)
        expected = propagate_oracle(h, seeds)
        assert actual.keys() == expected.keys()
        for code, value in expected.items():
            max_err = max(max_err, abs(actual[code] - value))
    assert max_err <= 1e-12

    # 500 randomized property cases: 250 linearity, 250 monotonicity
    for case in range(250):
        h = random_tree(rng, max_nodes=60)
        s1, s2 = random_seeds(rng, h), random_seeds(rng, h)
        scale = float(rng.uniform(-4, 4))
        base, other = propagate(h, s1), propagate(h, s2)
        scaled = propagate(h, {c: scale * v for c, v in s1.items()})
        for code, value in base.items():
            assert scaled[code] == pytest.approx(scale * value, abs=1e-9)
        combined_seeds = dict.fromkeys(set(s1) | set(s2), 0.0)
        for mapping in (s1, s2):
            for c, v in mapping.items():
                combined_seeds[c] += v
        combined = propagate(h, combined_seeds)
        for code in combined:
            assert combined[code] == pytest.approx(
                base.get(code, 0.0) + other.get(code, 0.0), abs=1e-9
            )
    for case in range(250):
        h = random_tree(rng, max_nodes=60)
        seeds = random_seeds(rng, h)
        if not seeds:
            continue
        base = propagate(h, seeds)
        codes = sorted(seeds)
        bump_code = codes[int(rng.integers(len(codes)))]
        bumped = dict(seeds)
        bumped[bump_code] += float(rng.uniform(0.1, 3.0))
        after = propagate(h, bumped)
        for code, value in base.items():
            assert after[code] >= value - 1e-12

    _report(2, True, f"oracle |Δ|={max_err:.2e} on 100 trees; 500 property cases")


def test_criterion_3_worked_example_goldens():
    # category utility on the 3-node tree
    h = Hierarchy({"C01": "", "C02": ""}, {})
    incidence, _ = membership([["C01"], ["C02"]], h.position, len(h.codes))
    cu = dict(zip(h.codes, category_utility(incidence @ h.closure, len(h.codes)).tolist()))
    assert f"{cu['C']:.4f}" == "0.5556"
    assert f"{cu['C01']:.4f}" == "0.0278"

    # propagation trace
    h2 = Hierarchy({"R01.001": "", "R01.002": "", "R02": ""}, {})
    trace = propagate(h2, {"R01.001": 4.0, "R01.002": 2.0, "R01": 1.0, "R02": 3.0})
    assert trace == {"R01.001": 4.0, "R01.002": 2.0, "R01": 4.0, "R02": 3.0, "R": 3.5}

    # two-node pagerank fixed point
    from kosrank.corpus import Article

    store = store_from_articles([Article(1, "2014-01", ()), Article(2, "2014-01", ())])
    pr = graphmetrics.pagerank(citegraph.build_graph(pair_arrays([(2, 1)]), store)).values
    assert f"{pr[2]:.2f}" == "0.15" and f"{pr[1]:.4f}" == "0.2775"

    # RRF: rank 1 everywhere, and the (1,2,3,4) staircase.  The staircase
    # golden is frozen from the direct-sum oracle sum(1/(60+r)).
    fused_first = fusion.rrf_fuse([np.array([1]) for _ in ASPECTS])[0]
    assert fused_first == pytest.approx(4 / 61, abs=1e-15)
    assert f"{fused_first:.6f}" == "0.065574"
    staircase = fusion.rrf_fuse([np.array([r]) for r in (1, 2, 3, 4)])[0]
    oracle = sum(1.0 / (60 + r) for r in (1, 2, 3, 4))
    assert staircase == pytest.approx(oracle, abs=1e-15)
    assert f"{staircase:.6f}" == "0.064020"

    # Mann-Whitney exact golden
    mw = evaluate.mann_whitney([1, 2, 3], [4, 5, 6])
    assert mw.method == "exact" and mw.p_value == pytest.approx(0.1, abs=1e-15)

    _report(
        3,
        True,
        "CU 0.5556/0.0278, trace {4,2,4,3,3.5}, PR 0.15/0.2775, "
        "RRF 0.065574 and 0.064020 (direct-sum oracle), MW p=0.1",
    )


def _run_cohort_scenario(seed: int) -> tuple[float, float, float, float]:
    """Default scenario end to end, in memory; returns (p_ev, p_ret, means)."""
    scenario = synthgen.ScenarioConfig(seed=seed)
    h, columns, edges, changes = synthgen.generate_columns(scenario)
    last = month_from_index(month_index(scenario.first_month) + scenario.months - 1)
    cfg = PipelineConfig(
        first_month=scenario.first_month,
        last_month=last,
        sample_fraction=0.10,
        base_seed=seed,
    )
    arrays = ingest_arrays(h, columns, edges)
    data = ingest_data(h, 0, changes, arrays)
    window = cfg.window()
    relevance: dict[str, np.ndarray] = {}  # fused values by position, 0 where unranked
    members: dict[str, np.ndarray] = {}
    for i, month in enumerate(window):
        result = compute_month(cfg, data, month, i)
        # one (values, scored) pair per aspect, in ASPECTS order
        ranks = [fusion.rank_by_aspect(v, s) for v, s in zip(result.values, result.scored)]
        relevance[month] = fusion.rrf_fuse(ranks)
        members[month] = result.member_ids

    release_year = year_of(scenario.first_month)
    year = [relevance[m] for m in window if year_of(m) == release_year]
    sums = sum(year)
    counts = sum((rrf > 0).astype(np.int64) for rrf in year)
    node_means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    evolving, stable = evaluate.evolution_cohorts(
        h.descriptors, h.descriptor_nodes, node_means, counts > 0,
        {c.descriptor_id for c in changes}
    )
    p_evolution = evaluate.mann_whitney(evolving, stable).p_value

    retracted_all: list[float] = []
    other_all: list[float] = []
    for year in sorted({year_of(m) for m in window}):
        months = [m for m in window if year_of(m) == year]
        ids = np.unique(np.concatenate([members[m] for m in months]))
        at = np.searchsorted(data.ids, ids)
        retracted, other = evaluate.retraction_split(
            data.incidence[at],
            data.retracted[at],
            [np.searchsorted(ids, members[m]) for m in months],
            [relevance[m] for m in months],
        )
        retracted_all.extend(retracted)
        other_all.extend(other)
    p_retraction = evaluate.mann_whitney(retracted_all, other_all).p_value
    return (
        p_evolution,
        p_retraction,
        float(np.mean(evolving)),
        float(np.mean(stable)),
    )


def test_criterion_4_cohort_separation():
    start = time.perf_counter()
    outcomes = [_run_cohort_scenario(seed) for seed in range(10)]
    both_significant = sum(
        1 for p_ev, p_ret, _, _ in outcomes if p_ev < 0.05 and p_ret < 0.05
    )
    direction = sum(1 for _, _, m_ev, m_st in outcomes if m_ev > m_st)
    elapsed = time.perf_counter() - start
    _report(
        4,
        both_significant >= 9 and direction >= 9 and elapsed < 600,
        f"p<0.05 for both cohorts in {both_significant}/10 seeds, "
        f"evolving mean higher in {direction}/10, {elapsed:.0f}s (< 600s)",
    )


def test_criterion_5_rrf_invariance():
    rng = np.random.default_rng(5005)
    codes = [f"C{i:02d}" for i in range(1, 25)]
    for case in range(200):
        chosen = sorted(
            rng.choice(codes, size=int(rng.integers(2, len(codes))), replace=False)
        )
        raw = {
            a: np.array([float(rng.integers(-60, 60)) for _ in chosen]) for a in ASPECTS
        }
        scored = np.ones(len(chosen), dtype=bool)
        fused = fusion.rrf_fuse([fusion.rank_by_aspect(raw[a], scored) for a in ASPECTS])
        aspect = ASPECTS[case % 4]
        factor = float(rng.integers(1, 6))
        shift = float(rng.integers(-30, 30))
        transform = case % 3
        if transform == 0:
            mapped = factor * raw[aspect] + shift
        elif transform == 1:
            mapped = raw[aspect] ** 3 + shift
        else:
            mapped = np.arctan(raw[aspect] / 60.0)
        raw[aspect] = mapped
        refused = fusion.rrf_fuse([fusion.rank_by_aspect(raw[a], scored) for a in ASPECTS])
        assert np.array_equal(
            fusion.rank_by_aspect(refused, scored), fusion.rank_by_aspect(fused, scored)
        )
        assert np.array_equal(refused, fused)
    _report(5, True, "fusion unchanged under 200 strictly monotone rescalings")


def test_criterion_6_pipeline_determinism(tmp_path: Path):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    cfg = PipelineConfig(
        hierarchy=str(data_dir / "hierarchy.tsv"),
        articles=str(data_dir / "articles.jsonl"),
        citations=str(data_dir / "citations.tsv"),
        changes=str(data_dir / "changes.tsv"),
        first_month="2014-01",
        last_month="2014-08",
        sample_fraction=0.5,
        base_seed=3,
        output_dir=str(tmp_path / "out"),
    )
    cfg_path = tmp_path / "pipeline.cfg"
    write_config(cfg, cfg_path)
    assert (
        cli_main(
            [
                "generate", "--config", str(cfg_path),
                "--months", "8", "--articles-per-month", "150",
                "--evolving-fraction", "0.05", "--retraction-rate", "0.05",
            ]
        )
        == 0
    )

    snapshots = []
    for threads in ("1", "8"):
        for argv in (
            ["compute", "--config", str(cfg_path), "--threads", threads],
            ["fuse", "--config", str(cfg_path)],
            ["evaluate", "--config", str(cfg_path)],
        ):
            assert cli_main(argv) == 0
        out = Path(cfg.output_dir)
        snapshots.append(
            {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file()
            }
        )
    identical = snapshots[0] == snapshots[1]
    _report(
        6,
        identical,
        f"{len(snapshots[0])} output files byte-identical with --threads 1 vs 8",
    )


def test_criterion_7_scale_smoke():
    """What `compute` runs for one month, at 1M nodes: the sample, PageRank,
    the disruption sweep, the incidence product, propagation and the
    information metrics."""
    start = time.perf_counter()
    scenario = synthgen.ScenarioConfig(
        seed=1,
        months=10,
        articles_per_month=100_000,
        hierarchy_branching=(8, 6, 4),
        descriptors_per_article_mean=2.0,
        refs_mean=5.8,
        pa_exponent=0.5,
        retraction_rate=0.0005,
    )
    hierarchy, columns, edges, _ = synthgen.generate_columns(scenario)
    data = ingest_data(hierarchy, 0, [], ingest_arrays(hierarchy, columns, edges))
    assert data.month_idx.max() <= month_index("2014-10")
    assert data.graph.num_edges >= 5_000_000

    result = compute_month(PipelineConfig(sample_fraction=1.0), data, "2014-10", 9)
    assert len(result.member_ids) == 1_000_000
    assert result.converged
    assert result.scored.any(axis=1).all()  # every aspect scores some node

    elapsed = time.perf_counter() - start
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024**2
    _report(
        7,
        elapsed < 600 and peak_gb < 8.0,
        f"{len(result.member_ids)} nodes / {data.graph.num_edges} edges: "
        f"compute_month with all four aspects in "
        f"{elapsed:.0f}s (< 600s), peak rss {peak_gb:.2f} GB (< 8 GB)",
    )
