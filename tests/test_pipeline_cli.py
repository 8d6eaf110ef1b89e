import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import descriptors_of, usefulness_oracle
from kosrank import citegraph, evaluate, graphmetrics, mirror, pipeline, propagation, synthgen
from kosrank.cli import main
from kosrank.config import ConfigError, load_config, write_config, PipelineConfig
from kosrank.corpus import parse_articles
from kosrank.hierarchy import ancestors_of, level_of, parse_hierarchy
from kosrank.months import month_from_index, month_index
from kosrank.pipeline import GRAPH_ARRAYS, compute_month, ingest, ingest_arrays
from kosrank.scores import ASPECTS, read_scores_csv


def make_config(tmp_path: Path, **overrides) -> Path:
    data = tmp_path / "data"
    data.mkdir(exist_ok=True)
    cfg = PipelineConfig(
        hierarchy=str(data / "hierarchy.tsv"),
        articles=str(data / "articles.jsonl"),
        citations=str(data / "citations.tsv"),
        changes=str(data / "changes.tsv"),
        first_month="2014-01",
        last_month="2014-06",
        sample_fraction=1.0,
        base_seed=11,
        output_dir=str(tmp_path / "out"),
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    path = tmp_path / "pipeline.cfg"
    write_config(cfg, path)
    return path


def generate_inputs(cfg_path: Path, months=6, articles=120) -> None:
    code = main(
        [
            "generate",
            "--config",
            str(cfg_path),
            "--months",
            str(months),
            "--articles-per-month",
            str(articles),
            "--evolving-fraction",
            "0.05",
            "--retraction-rate",
            "0.05",
            "--refs-mean",
            "3.0",
        ]
    )
    assert code == 0


def add_mapping_edge_cases(cfg: PipelineConfig, month: str) -> None:
    """Map one descriptor to a second code in another category, and add an
    article in `month` that carries it beside an unknown descriptor id."""
    with open(cfg.hierarchy) as fh:
        h, _ = parse_hierarchy(fh)
    descriptor = min(h.descriptor_map)
    categories = {code[0] for code in h.descriptor_map[descriptor]}
    extra = next(code for code in sorted(h.nodes, reverse=True) if code[0] not in categories)
    with open(cfg.hierarchy, "a") as fh:
        fh.write(f"{extra}\t{descriptor}\t\n")
    articles = Path(cfg.articles)
    last_id = max(json.loads(line)["id"] for line in articles.read_text().splitlines())
    row = {"id": last_id + 1, "month": month, "mesh": [descriptor, "D999998"], "retracted": False}
    with articles.open("a") as fh:
        fh.write(json.dumps(row) + "\n")


@pytest.fixture()
def prepared(tmp_path):
    cfg_path = make_config(tmp_path)
    generate_inputs(cfg_path)
    cfg = load_config(cfg_path)
    add_mapping_edge_cases(cfg, "2014-04")
    return cfg_path, cfg


def aspect_scores(result, aspect: str) -> tuple[np.ndarray, np.ndarray]:
    """The (values, scored) arrays that a MonthResult holds for `aspect`."""
    s = ASPECTS.index(aspect)
    return result.values[s], result.scored[s]


def scored_values(h, values, scored) -> dict[str, float]:
    """code -> value of the nodes an aspect scored."""
    return {
        code: value
        for code, value, given in zip(h.codes, values.tolist(), scored.tolist())
        if given
    }


def read_all_outputs(out_dir: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(out_dir)): p.read_bytes()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    # scipy.stats takes about 0.8 s and 50 MB to import, and no stage needs
    # it.  The chain runs in a fresh interpreter with warnings as errors, on a
    # scenario whose disruptiveness series is constant (0 edges).
    cfg_path = make_config(tmp_path, last_month="2014-01", sample_fraction=0.5, base_seed=4)
    code = f"""
import sys
from kosrank.cli import main
cfg = {str(cfg_path)!r}
args = ["--months", "1", "--articles-per-month", "4", "--retraction-rate", "0.05"]
assert main(["generate", "--config", cfg, *args]) == 0
for stage in ("ingest", "compute", "fuse", "trend", "evaluate", "export-plots"):
    assert main([stage, "--config", cfg]) == 0
sys.exit("scipy.stats" in sys.modules and "the chain loaded scipy.stats")
"""
    src = str(Path(pipeline.__file__).parents[1])
    run = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert run.returncode == 0, run.stderr


class TestConfig:
    def test_round_trip(self, tmp_path):
        path = make_config(tmp_path)
        cfg = load_config(path)
        assert cfg.sample_fraction == 1.0
        assert cfg.base_seed == 11
        assert cfg.pagerank_alpha == 0.85
        assert cfg.rrf_k == 60

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(Exception):
            load_config(path)

    @pytest.mark.parametrize(
        "line, key",
        [
            ('base_seed = "seven"', "base_seed"),
            ('sample_fraction = "0.5"', "sample_fraction"),
            ("pagerank_max_iter = 0", "pagerank_max_iter"),
            ("pagerank_max_iter = -5", "pagerank_max_iter"),
            ("pagerank_tol = 0.0", "pagerank_tol"),
            ("pagerank_tol = -1e-9", "pagerank_tol"),
        ],
    )
    def test_mistyped_value_is_a_one_line_error(self, tmp_path, capsys, line, key):
        path = make_config(tmp_path)
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(ConfigError, match=key):
            load_config(path)
        assert main(["compute", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} ") and err.count("\n") == 1

    def test_int_passes_for_float_and_bool_never_for_number(self, tmp_path):
        path = make_config(tmp_path)
        path.write_text(path.read_text() + "sample_fraction = 1\n")
        assert load_config(path).sample_fraction == 1
        path.write_text(path.read_text() + "rrf_k = true\n")
        with pytest.raises(ConfigError, match="rrf_k"):
            load_config(path)

    def test_seed_override(self, tmp_path):
        cfg = load_config(make_config(tmp_path), base_seed=99)
        assert cfg.base_seed == 99

    def test_hash_changes_with_config(self, tmp_path):
        c1 = load_config(make_config(tmp_path))
        c2 = load_config(make_config(tmp_path), base_seed=99)
        assert c1.config_hash() != c2.config_hash()

    def test_threads_is_a_compute_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuse", "--config", str(make_config(tmp_path)), "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_a_usage_error(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setattr(pipeline, "compute", lambda *a, **k: pytest.fail("compute ran"))
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--config", str(make_config(tmp_path)), "--threads", threads])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --threads: must be at least 1, got {threads}\n" in err


class TestIngest:
    def test_valid_dataset_reports_counts(self, tmp_path, capsys):
        cfg_path = make_config(tmp_path)
        generate_inputs(cfg_path)
        assert main(["ingest", "--config", str(cfg_path)]) == 0
        report = capsys.readouterr().out
        assert "articles: 720" in report
        assert "edges kept:" in report
        assert "self-loops dropped: 0" in report

    @pytest.mark.parametrize(
        "what, row, reason",
        [
            ("citations", "2\t99999999999999999999", "article id outside the int64 range"),
            ("articles", {"id": 99999999999999999999}, "'id' outside the int64 range"),
            ("articles", {"id": 2.9}, "missing or non-integer 'id'"),
            ("articles", {"id": False}, "missing or non-integer 'id'"),
            ("articles", {"id": "7"}, "missing or non-integer 'id'"),
            ("articles", {"id": 10**9, "retracted": "false"}, "'retracted' must be true or false"),
            ("articles", {}, "duplicate id {}, first on line 1"),
        ],
        ids=["citations", "articles", "articles-id-2.9", "articles-id-false", 'articles-id-"7"',
             'articles-retracted-"false"', "articles-duplicate"],
    )
    def test_id_beyond_int64_is_a_one_line_error(self, tmp_path, capsys, what, row, reason):
        """A bad row appended to an input file fails `ingest` with one line
        naming the file and the row's line; an article row without its own
        `id` repeats the first row's."""
        cfg_path = make_config(tmp_path)
        generate_inputs(cfg_path)
        cfg = load_config(cfg_path)
        path = Path(getattr(cfg, what))
        lines = path.read_text().splitlines()
        if what == "articles":
            first_id = json.loads(lines[0])["id"]
            row = json.dumps({"id": first_id, "month": "2014-01", **row})
            reason = reason.format(first_id)
        lines.append(row)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["ingest", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: line {len(lines)}: {reason}\n"

    def test_missing_citations_file_fails_with_path(self, tmp_path, capsys):
        cfg_path = make_config(tmp_path)
        generate_inputs(cfg_path)
        cfg = load_config(cfg_path)
        Path(cfg.citations).unlink()
        assert main(["ingest", "--config", str(cfg_path)]) != 0
        err = capsys.readouterr().err
        assert "citations.tsv" in err

    def test_missing_citations_file_fails_before_any_parse(self, tmp_path, capsys):
        cfg_path = make_config(tmp_path)
        generate_inputs(cfg_path)
        cfg = load_config(cfg_path)
        Path(cfg.articles).write_text("not json\n")
        Path(cfg.citations).unlink()
        assert main(["ingest", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: citations file not found: ")


class TestGenerate:
    def test_missing_articles_path_fails_before_generating(self, tmp_path, capsys, monkeypatch):
        path = make_config(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(line for line in lines if not line.startswith("articles ")))

        def generate(scenario):
            raise AssertionError("generate ran before the config paths were checked")

        monkeypatch.setattr(synthgen, "generate", generate)
        assert main(["generate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: config does not set the articles path\n"


class TestComputeFuseTrendEvaluate:
    def test_compute_outputs(self, prepared):
        cfg_path, cfg = prepared
        assert main(["compute", "--config", str(cfg_path)]) == 0
        out = Path(cfg.output_dir)
        score_files = sorted((out / "scores").glob("*.csv"))
        assert len(score_files) == 4 * 6  # four aspects x six months
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == cfg.config_hash()
        assert manifest["seeds"]["2014-03"] == cfg.base_seed + 2
        for path in score_files:
            first = path.read_text().splitlines()[0]
            assert first == f"# config_hash={cfg.config_hash()}"

    def test_full_chain_and_determinism_across_threads(self, prepared):
        cfg_path, cfg = prepared
        for threads in ("1", "4"):
            assert main(["compute", "--config", str(cfg_path), "--threads", threads]) == 0
            assert main(["fuse", "--config", str(cfg_path)]) == 0
            assert main(["trend", "--config", str(cfg_path)]) == 0
            assert main(["evaluate", "--config", str(cfg_path)]) == 0
            assert main(["export-plots", "--config", str(cfg_path)]) == 0
            if threads == "1":
                first = read_all_outputs(Path(cfg.output_dir))
            else:
                second = read_all_outputs(Path(cfg.output_dir))
        assert first == second
        names = set(first)
        assert "rankings.csv" in names
        assert "trends.csv" in names and "tables.csv" in names
        assert "evolution_tests.json" in names and "retraction_tests.json" in names
        assert "correlation_pearson.csv" in names and "correlation_spearman.csv" in names
        assert any(name.startswith("plots/") for name in names)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_one_thread_computes_in_the_calling_thread(self, prepared, monkeypatch, threads):
        cfg_path, _ = prepared
        callers = []

        def spy(*args):
            callers.append(threading.current_thread())
            return compute_month(*args)

        monkeypatch.setattr(pipeline, "compute_month", spy)
        assert main(["compute", "--config", str(cfg_path), "--threads", threads]) == 0
        assert len(callers) == 6
        assert (set(callers) == {threading.main_thread()}) == (threads == "1")

    def test_rankings_rows_well_formed(self, prepared):
        cfg_path, cfg = prepared
        assert main(["compute", "--config", str(cfg_path)]) == 0
        assert main(["fuse", "--config", str(cfg_path)]) == 0
        lines = (Path(cfg.output_dir) / "rankings.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "month,scope,tree_code,rrf_value,rank"
        global_ranks = [
            int(line.split(",")[4])
            for line in lines[2:]
            if line.split(",")[0] == "2014-01" and line.split(",")[1] == "global"
        ]
        assert global_ranks == list(range(1, len(global_ranks) + 1))
        # each level is its own scope, re-ranked from 1
        level_ranks = {}
        for line in lines[2:]:
            month, scope, code, _, rank = line.split(",")
            if month == "2014-01" and scope != "global":
                assert scope == f"level-{level_of(code)}"
                level_ranks.setdefault(scope, []).append(int(rank))
        assert sum(map(len, level_ranks.values())) == len(global_ranks)
        assert all(r == list(range(1, len(r) + 1)) for r in level_ranks.values())

    @pytest.mark.parametrize("mode", ["entropy-term", "surprisal"])
    @pytest.mark.parametrize("fraction", [1.0, 0.5])
    def test_unsampled_compute_matches_direct_module_calls(self, prepared, fraction, mode):
        _, cfg = prepared
        cfg = dataclasses.replace(cfg, sample_fraction=fraction, informativeness_mode=mode)
        data = ingest(cfg)
        month = "2014-04"
        result = compute_month(cfg, data, month, 3)
        # independent reconstruction through the dict-based library calls
        with open(cfg.articles) as fh:
            store = parse_articles(fh)
        published = store.ids[store.month_idx <= month_index(month)]
        snapshot = citegraph.induced(data.graph, np.isin(data.graph.node_ids, published))
        everyone = np.ones(snapshot.num_nodes, dtype=bool)
        sample = citegraph.sample_nodes(snapshot, everyone, fraction, cfg.base_seed + 3)
        codes = {}
        for raw_id in sample.node_ids:
            mapped, _ = data.hierarchy.treenodes_of(descriptors_of(store, int(raw_id)))
            if mapped:
                codes[int(raw_id)] = tuple(sorted(mapped))
        for aspect, scores in (
            ("influence", graphmetrics.pagerank(sample)),
            ("disruptiveness", graphmetrics.disruption_all(sample)),
        ):
            seeds = graphmetrics.aggregate_to_nodes(scores, codes)
            expected = propagation.propagate(data.hierarchy, seeds)
            assert scored_values(data.hierarchy, *aspect_scores(result, aspect)) == expected

        # the month's own mappings, from per-article treenodes_of calls
        h = data.hierarchy
        assert data.unknown_descriptor_refs == 1
        added = descriptors_of(store, int(store.ids[-1]))
        assert month_from_index(int(store.month_idx[-1])) == month
        assert len(h.treenodes_of(added)[0]) > 1
        pairs = []
        for article_id in store.ids[store.month_idx == month_index(month)].tolist():
            mapped, _ = h.treenodes_of(descriptors_of(store, article_id))
            pairs.extend((article_id, code) for code in sorted(mapped))
        # each (article, node) pair counts once at the node and every ancestor
        propagated = dict.fromkeys(h.nodes, 0)
        rows = {code: set() for code in h.nodes}
        for article_id, code in pairs:
            for node in (code, *ancestors_of(code)):
                propagated[node] += 1
                rows[node].add(article_id)
        level_totals = {}
        for code, count in propagated.items():
            level_totals[level_of(code)] = level_totals.get(level_of(code), 0) + count
        # p = count / level total; entropy-term scores -p log2 p (0 at p = 0),
        # surprisal -log2 p (unscored at p = 0); empty levels stay unscored
        expected = {}
        for code, count in propagated.items():
            total = level_totals[level_of(code)]
            if total == 0:
                continue
            p = count / total
            if mode == "entropy-term":
                expected[code] = -p * math.log2(p) if p > 0 else 0.0
            elif p > 0:
                expected[code] = -math.log2(p)
        assert scored_values(h, *aspect_scores(result, "informativeness")) == expected
        oracle = usefulness_oracle({code: frozenset(row) for code, row in rows.items()}, len(h.nodes))
        usefulness = scored_values(h, *aspect_scores(result, "usefulness"))
        assert usefulness.keys() == oracle.keys()
        for code, value in oracle.items():
            assert usefulness[code] == pytest.approx(value, abs=1e-12)

    def test_empty_sample_writes_empty_graph_tables(self, prepared):
        _, cfg = prepared
        cfg = dataclasses.replace(cfg, sample_fraction=0.005)  # 0 of 2014-01's 120 articles
        data = ingest(cfg)
        first = compute_month(cfg, data, "2014-01", 0)
        second = compute_month(cfg, data, "2014-02", 1)
        assert len(first.member_ids) == 0 and len(second.member_ids) > 0
        for aspect in ("influence", "disruptiveness"):
            assert scored_values(data.hierarchy, *aspect_scores(first, aspect)) == {}
            assert scored_values(data.hierarchy, *aspect_scores(second, aspect))

    def test_evaluate_separates_planted_cohorts(self, prepared):
        cfg_path, cfg = prepared
        assert main(["compute", "--config", str(cfg_path)]) == 0
        assert main(["fuse", "--config", str(cfg_path)]) == 0
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        evolution = json.loads(
            (Path(cfg.output_dir) / "evolution_tests.json").read_text()
        )
        relevance_rows = [
            r for r in evolution["results"] if r["aspect"] == "relevance"
        ]
        assert relevance_rows and all(r["status"] == "ok" for r in relevance_rows)
        retraction = json.loads(
            (Path(cfg.output_dir) / "retraction_tests.json").read_text()
        )
        assert any(r["status"] == "ok" for r in retraction["results"])

    def test_evaluate_skipped_status_when_no_evolving_descriptors(self, prepared):
        cfg_path, cfg = prepared
        # change records that match no scored descriptor leave the evolving
        # cohort empty, mirroring releases without evolving descriptors
        Path(cfg.changes).write_text("2014AA\tD999999\tremoval\n")
        assert main(["compute", "--config", str(cfg_path)]) == 0
        assert main(["fuse", "--config", str(cfg_path)]) == 0
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        evolution = json.loads(
            (Path(cfg.output_dir) / "evolution_tests.json").read_text()
        )
        assert evolution["results"]
        assert all(r["status"] == "skipped" for r in evolution["results"])

    def test_evaluate_skips_without_changes(self, tmp_path, capsys):
        cfg_path = make_config(tmp_path, changes="")
        generate_inputs(cfg_path)
        assert main(["compute", "--config", str(cfg_path)]) == 0
        assert main(["fuse", "--config", str(cfg_path)]) == 0
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        cfg = load_config(cfg_path)
        evolution = json.loads(
            (Path(cfg.output_dir) / "evolution_tests.json").read_text()
        )
        assert evolution["results"] == []

    def test_evaluate_writes_skipped_correlation_matrices(self, tmp_path, monkeypatch):
        cfg_path = make_config(tmp_path, last_month="2014-02")
        generate_inputs(cfg_path, months=2, articles=40)
        for stage in ("compute", "fuse"):
            assert main([stage, "--config", str(cfg_path)]) == 0
        # two aligned observations reach the real check, one short of a matrix
        real = evaluate.correlation_matrix
        monkeypatch.setattr(evaluate, "correlation_matrix",
                            lambda data, method: real(data[:, :2], method))
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        cfg = load_config(cfg_path)
        expected = (f"# config_hash={cfg.config_hash()}\n"
                    "# skipped: need >= 3 aligned observations, got 2\n")
        for method in ("pearson", "spearman"):
            assert (Path(cfg.output_dir) / f"correlation_{method}.csv").read_text() == expected

    def test_evaluate_reads_no_citations(self, prepared, capsys):
        cfg_path, cfg = prepared
        for stage in ("compute", "fuse", "evaluate"):
            assert main([stage, "--config", str(cfg_path)]) == 0
        intact = read_all_outputs(Path(cfg.output_dir))
        Path(cfg.citations).write_text("2\tnot-an-id\n")
        assert main(["ingest", "--config", str(cfg_path)]) == 1
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().err == ""
        assert read_all_outputs(Path(cfg.output_dir)) == intact

    def test_non_converged_pagerank_is_reported(self, prepared, capsys):
        cfg_path, cfg = prepared
        assert main(["compute", "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().err == ""
        cfg_path.write_text(cfg_path.read_text() + "pagerank_max_iter = 1\n")
        assert main(["compute", "--config", str(cfg_path)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"warning: {month}: PageRank did not converge within pagerank_max_iter = 1 iterations"
            for month in cfg.window()
        ]
        assert len(list((Path(cfg.output_dir) / "scores").iterdir())) == 4 * len(cfg.window())

    def test_missing_upstream_outputs(self, prepared, capsys):
        cfg_path, _ = prepared
        assert main(["fuse", "--config", str(cfg_path)]) != 0
        assert "missing compute output" in capsys.readouterr().err

    def test_truncated_score_row_names_file_and_line(self, prepared, capsys):
        cfg_path, cfg = prepared
        assert main(["compute", "--config", str(cfg_path)]) == 0
        path = Path(cfg.output_dir) / "scores" / "influence_2014-03.csv"
        lines = path.read_text().splitlines()
        lines[-1] = ",".join(lines[-1].split(",")[:3])
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["fuse", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: line {len(lines)}: expected 5 fields, got 3\n"

    def test_malformed_member_id_names_file_and_line(self, prepared, capsys):
        cfg_path, cfg = prepared
        for stage in ("compute", "fuse"):
            assert main([stage, "--config", str(cfg_path)]) == 0
        path = Path(cfg.output_dir) / "members" / "2014-02.csv"
        lines = path.read_text().splitlines()
        lines.insert(3, "12x")
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: line 4: invalid literal for int() with base 10: '12x'\n"

    @pytest.mark.parametrize(
        "row, message",
        [
            ("Z99,2,influence,2014-01,0.5", "tree code Z99 is not in the hierarchy"),
            ("A,1,influence,2014-01,1e9", "tree code A repeats an earlier row"),
        ],
        ids=["outside-hierarchy", "repeated"],
    )
    def test_bad_score_code_names_file_and_line(self, prepared, capsys, row, message):
        cfg_path, cfg = prepared
        for stage in ("compute", "fuse"):
            assert main([stage, "--config", str(cfg_path)]) == 0
        path = Path(cfg.output_dir) / "scores" / "influence_2014-01.csv"
        with path.open("a") as fh:
            fh.write(row + "\n")
        line = len(path.read_text().splitlines())
        capsys.readouterr()
        for stage in ("fuse", "evaluate"):
            assert main([stage, "--config", str(cfg_path)]) == 1
            assert capsys.readouterr().err == f"error: {path}: line {line}: {message}\n"

    @pytest.mark.parametrize("edit", ["relabelled", "wrong-level"])
    def test_score_row_of_another_table_names_file_and_line(self, prepared, capsys, edit):
        cfg_path, cfg = prepared
        for stage in ("compute", "fuse"):
            assert main([stage, "--config", str(cfg_path)]) == 0
        path = Path(cfg.output_dir) / "scores" / "influence_2014-02.csv"
        lines = path.read_text().splitlines()
        assert lines[2].startswith("A,1,influence,2014-02,")  # the first row
        if edit == "relabelled":
            relabel = (",influence,2014-02,", ",usefulness,2014-03,")
            lines[2:] = [line.replace(*relabel) for line in lines[2:]]
            message = "row of usefulness,2014-03 in the influence,2014-02 table"
        else:
            lines[2] = lines[2].replace("A,1,", "A,7,")
            message = "level 7 is not the level 1 of tree code A"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        for stage in ("fuse", "evaluate"):
            assert main([stage, "--config", str(cfg_path)]) == 1
            assert capsys.readouterr().err == f"error: {path}: line 3: {message}\n"

    @pytest.mark.parametrize("edit", ["global-row-deleted", "level-row-deleted", "rank-gap"])
    def test_incomplete_rankings_is_a_one_line_error(self, prepared, capsys, edit):
        cfg_path, cfg = prepared
        for stage in ("compute", "fuse"):
            assert main([stage, "--config", str(cfg_path)]) == 0
        path = Path(cfg.output_dir) / "rankings.csv"
        lines = path.read_text().splitlines()
        if edit == "rank-gap":
            # the last global row of 2014-01 moves one rank down
            at = max(i for i, line in enumerate(lines) if line.startswith("2014-01,global,"))
            *head, rank = lines[at].split(",")
            lines[at] = ",".join([*head, str(int(rank) + 1)])
            message = f"2014-01,global: ranks are not 1..{rank}"
        else:
            scope = "global" if edit == "global-row-deleted" else "level-1"
            lines.remove(next(line for line in lines if line.startswith(f"2014-01,{scope},A,")))
            message = "2014-01: level and global ranks cover different codes"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        for stage in ("trend", "evaluate", "export-plots"):
            assert main([stage, "--config", str(cfg_path)]) == 1
            assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_missing_changes_file_is_an_error(self, prepared, capsys):
        cfg_path, cfg = prepared
        for stage in ("compute", "fuse"):
            assert main([stage, "--config", str(cfg_path)]) == 0
        missing = Path(cfg.changes).with_name("changse.tsv")
        cfg_path.write_text(cfg_path.read_text() + f'changes = "{missing}"\n')
        capsys.readouterr()
        for stage in ("ingest", "compute", "evaluate"):
            assert main([stage, "--config", str(cfg_path)]) == 1
            assert capsys.readouterr().err == f"error: changes file not found: {missing}\n"

    def test_release_without_a_year_is_a_one_line_error(self, prepared, capsys):
        cfg_path, cfg = prepared
        Path(cfg.changes).write_text("AA\tD000001\textension\n")
        for stage in ("ingest", "evaluate"):
            assert main([stage, "--config", str(cfg_path)]) == 1
            err = capsys.readouterr().err
            assert err == f"error: {cfg.changes}: line 1: release 'AA' does not start with a year\n"

    @pytest.mark.parametrize(
        "edit",
        ["unknown-code", "repeated-row", "scope-of-another-level", "month-outside-window", "rank-0"],
    )
    def test_bad_rankings_row_names_file_and_line(self, prepared, capsys, edit):
        cfg_path, cfg = prepared
        for stage in ("compute", "fuse"):
            assert main([stage, "--config", str(cfg_path)]) == 0
        path = Path(cfg.output_dir) / "rankings.csv"
        lines = path.read_text().splitlines()
        # usefulness scores every node, so every month ranks the root A
        at = lines.index(next(line for line in lines if line.startswith("2014-01,level-1,A,")))
        month, scope, code, value, rank = lines[at].split(",")
        if edit == "unknown-code":
            lines.append("2014-01,global,Z99,0.5,1")
            at, message = len(lines) - 1, "tree code Z99 is not in the hierarchy"
        elif edit == "repeated-row":
            lines.append(lines[-1])
            at = len(lines) - 1
            message = ",".join(lines[at].split(",")[:3]) + " repeats an earlier row"
        elif edit == "scope-of-another-level":
            lines[at] = ",".join([month, "level-2", code, value, rank])
            message = "scope level-2 does not hold tree code A"
        elif edit == "month-outside-window":
            lines[at] = ",".join(["2014-07", scope, code, value, rank])
            message = "month 2014-07 is outside the window"
        else:
            lines[at] = ",".join([month, scope, code, value, "0"])
            message = "rank 0 is below 1"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        for stage in ("trend", "evaluate", "export-plots"):
            assert main([stage, "--config", str(cfg_path)]) == 1
            assert capsys.readouterr().err == f"error: {path}: line {at + 1}: {message}\n"


# sha256 of every file the seed-1 chain writes over 300 articles a month, but
# correlation_*.csv: np.corrcoef goes through BLAS, whose summation order can
# vary by CPU.  The first window was recorded before the scores stayed
# position vectors through fuse and evaluate, the second, which crosses a year
# boundary so that trends.csv holds slope rows, before the rankings were read
# back as position arrays.
PINNED = {
    ("2014-01", "2014-03"): {
        "evolution_tests.json": "9cc6d51cc8e9faf44e595d0459c5a091288ebd8632fffa368d421f40a3cc4d73",
        "manifest.json": "26471189ba04da63c78a651c8e790caf6a8310060c4def6978327b12feedf08c",
        "members/2014-01.csv": "e19d9a5371439d28c39f935d7c72959f8fc95db0de701b3d55896cd15592c87c",
        "members/2014-02.csv": "df470f34f961499ba7262ce04a220a3a385c9e5b4d831c43e4a0a2386bf3fb12",
        "members/2014-03.csv": "a0a4a6ae016747ac68cd681b0bf00528599f7b62129fc90684dce008d063a524",
        "plots/rank_level-1.svg": "cbe2f61252119189a2276fcf0b388a70f503448d60cb5f5d49be208d2ce779b2",
        "plots/rank_level-2.svg": "cdcf1dbb4b61f3038c4fbca7f13727c67c625172ef02dffab303a6acbd60be3c",
        "plots/rank_level-3.svg": "c2cc6fc593cddf2b667c77e6b18e4963886ff37f9718d1b08bfa858beb726213",
        "plots/rank_level-4.svg": "20b39a311a00b6db7634f4af7a913489ad975ccede3dd9c233d0b390d05f4e0a",
        "rankings.csv": "fb2324f0a688170253f771b965934605b6973531f94c3aeac28be3b08d239636",
        "retraction_tests.json": "bf868bc935fb826fb428ea7e934e2cd89039cafb8c32f56c7e1c578965f89005",
        "scores/disruptiveness_2014-01.csv": "508d609d3826ed1f0da204460f9e7b8814a8bee7cb07cf1e14609df3d86bdcce",
        "scores/disruptiveness_2014-02.csv": "13818b0f4b88c18561b8a84c4eee135e2927be27a5af22fb8c39bba8aea5003c",
        "scores/disruptiveness_2014-03.csv": "eae105269ad02c258bda222a4097d793f1748faeca829388ccb5ad2a3b225c92",
        "scores/influence_2014-01.csv": "4db3435442a7bd08452fe11a3d0802b010374b6b4b99512f9712ac5131f3ce98",
        "scores/influence_2014-02.csv": "0ccadaca195ab504df17d9eed4c89e9a8b68ac1ece3ed3a7174370ef1e54cd40",
        "scores/influence_2014-03.csv": "1fd0347eb2a9058216d07eb1b074f2c4e93d399a700e46354b139b34cdc6c3fc",
        "scores/informativeness_2014-01.csv": "418c056efa65f1a9b1309e5ba3d08e3ae6badf71f3199013516c59b729179c42",
        "scores/informativeness_2014-02.csv": "70f11f9015d5ab3b8e0409b3f9583ed0eaf47837fe0ce7eabc59757efdb0ab15",
        "scores/informativeness_2014-03.csv": "42a2b8401a0c785fecdce9e3b9f6dbf396b866145a1f3cd4cfc9fa05c2e6ee25",
        "scores/usefulness_2014-01.csv": "1488778257ddae1a826e8a73126b83281d2bf01ae1630337c5a1b3bbdc3233c8",
        "scores/usefulness_2014-02.csv": "2fc8822d6355b907b7dba9f491d51d645bdf67b8a9d5abfebaa16f55e91a20fa",
        "scores/usefulness_2014-03.csv": "eb5d353f51086c061855c74ad5eabb363ab4e0144eef1ce420d61bf7eae794ca",
        "tables.csv": "a0e0c60b52d68d8db26e9424e7ae87254e94dbb86f47481abb1d2237926eecb6",
        "trends.csv": "6293b16bed7ad5bee9aa05181bc228c3a63d677e91e4a3c5e516a62846435722",
    },
    ("2014-11", "2015-02"): {
        "evolution_tests.json": "56c386875d7407e0ef01aa1e1543f96f3b2e14f902eca629e033ce3e8034f7e3",
        "manifest.json": "0aa4e3d25f99e83795ad9bbbf6cf971044630968fe55d1240ecaba70d50601d6",
        "members/2014-11.csv": "7d94d8f6946ef7d9cf5d768f263d2db4f152caf2630864dbb1cbe66b9af6226c",
        "members/2014-12.csv": "7cd614c5f9376e7aa2ab0695b31e9304f6dbd95bd3e5f12b576aef3cbd5430f3",
        "members/2015-01.csv": "070c1eda857e6b9454c0931b7f877416fb5ef300c7b754c73c886bc3d046ee93",
        "members/2015-02.csv": "7ce69e7e8cc227d1d33e6604c22460cd1d0a85dd230e703235ac6aeed2b67680",
        "plots/rank_level-1.svg": "72ac6e0efd4b617d6b71510c54316830625844bb1eaadcf9fa1afa161e3a125f",
        "plots/rank_level-2.svg": "888d68b1e7987542615b6c9d48aaa9eced215011bb1cd64cba70fb7ef0c26ec5",
        "plots/rank_level-3.svg": "e3998160cdf27780892e8d00c56d68a4986dae7e6d4126dcf3c5f2492ebc5c5e",
        "plots/rank_level-4.svg": "e4d7d4d58f72f6f605c2c9835796f9d638e4287c77a7cef7a595fdb29ff67cb9",
        "rankings.csv": "662bbe4fec02d672d3859357be2a2974f0c71bb2dc000d08634308ca4e45960e",
        "retraction_tests.json": "5d6a5ebecfcffe869b868e1123b019945df9f9c9c4da9bb1142e50db79f9be65",
        "scores/disruptiveness_2014-11.csv": "e0bcacc60e0aabee70b5ca0ba22e07fb50c4aea511176b74bc00e3e1e7458038",
        "scores/disruptiveness_2014-12.csv": "7d1d976c98465670baabbf60a84f4af89b11b6572f6911674cc6ae5b7c041400",
        "scores/disruptiveness_2015-01.csv": "aeda842340995340a3861984bd173b340534c609815145927b5e66795f24daad",
        "scores/disruptiveness_2015-02.csv": "5f3c080d840c946e6f70e693f059ad92460a70a29c2c422bd7aef9a4bdd447af",
        "scores/influence_2014-11.csv": "2a0c41c1f0729302c7420d25e02794cbf3b461fe896c3425d8cb6ca74db4fded",
        "scores/influence_2014-12.csv": "afb78959c2a39bb087ba75a3f70d87d1f30ee0b55ac419f2d63bf1c6d4e58679",
        "scores/influence_2015-01.csv": "ade0608a8f80efa6c55600ba450901f2d9cdadeaf8356d9972d32fefba104df3",
        "scores/influence_2015-02.csv": "d527bfd5fa371222fcf0f588d5fcacd5f82b0580462645a05d472d158758c0b9",
        "scores/informativeness_2014-11.csv": "20281c60a0b7d44c319d57330f6de90d3fa19f34f35375dd244204ae0ef54d1c",
        "scores/informativeness_2014-12.csv": "748f65fb4e4f48232e262fe50a7ea1439a268980bf8c18a2318972325a0130d3",
        "scores/informativeness_2015-01.csv": "191a143d713d739e6444d781d1e55dc81186ccbc13c32f0d37e8821b6e824579",
        "scores/informativeness_2015-02.csv": "202d18c8fe9ad82933962c1e8cc5c5c3d94ceda6c639ffbb1c9de89e429d78c5",
        "scores/usefulness_2014-11.csv": "3a0ff4ada1aeabf331f27f2177692d51ab9ea54309d89d3e448d3d1581dc0e0e",
        "scores/usefulness_2014-12.csv": "743d164f23335862c40146996a47e07ab1d3b76b7d9f323fc25c98eba790595e",
        "scores/usefulness_2015-01.csv": "44c6e197d2e7bb35fe2504af86fa8c5eeb13893d7ca819e076ad30cfd6442e4d",
        "scores/usefulness_2015-02.csv": "b07805747ed221cc52a516aae238fdb7e062cb0eb5bd539fdaaf9a12c9449a31",
        "tables.csv": "970b32e34d40711e23f781c80dd96bdba0b150d6fe5ca317c321fd65ca5a248d",
        "trends.csv": "2fb84effb5f84c9f2a7c53d709f81308cc5f9b5bcf0737a7ba0060918c0e6c0f",
    },
}


STAGE_MIRROR_FILES = {
    "scores.mirror.json", "scores.values.npy", "scores.scored.npy", "rankings.mirror.json",
    "rankings.rrf.npy", "rankings.global_rank.npy", "rankings.level_rank.npy",
    "members.mirror.json", "members.ids.npy", "members.indptr.npy",
}


class TestChainPinned:
    @pytest.mark.parametrize("window", PINNED, ids="..".join)
    def test_written_files_are_pinned(self, tmp_path, monkeypatch, window):
        # Relative paths keep the config hash, written into every file, fixed.
        monkeypatch.chdir(tmp_path)
        cfg = PipelineConfig(
            hierarchy="data/hierarchy.tsv",
            articles="data/articles.jsonl",
            citations="data/citations.tsv",
            changes="data/changes.tsv",
            first_month=window[0],
            last_month=window[1],
            sample_fraction=0.5,
            base_seed=1,
            output_dir="out",
        )
        write_config(cfg, "pipeline.cfg")
        args = ["--months", str(len(cfg.window())), "--articles-per-month", "300"]
        assert main(["generate", "--config", "pipeline.cfg", *args]) == 0
        for stage in ("compute", "fuse", "trend", "evaluate", "export-plots"):
            assert main([stage, "--config", "pipeline.cfg"]) == 0
        written = {
            name: hashlib.sha256(data).hexdigest()
            for name, data in read_all_outputs(Path("out")).items()
            if not name.startswith("correlation_")
        }
        # The stage mirrors are checked against the parsers in TestMirrors;
        # here only their names are pinned.
        assert set(written) - set(PINNED[window]) == STAGE_MIRROR_FILES
        assert {name: written[name] for name in PINNED[window]} == PINNED[window]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_cut_gives_the_snapshot_sample(tmp_path, seed):
    """Each window month's sample, drawn from the whole graph with the
    snapshot's nodes as candidates, is the sample that the snapshot cut,
    then sampled by the PCG64 prefix rule, gives."""
    cfg_path = make_config(tmp_path, base_seed=seed, sample_fraction=0.5)
    generate_inputs(cfg_path, months=6, articles=300)
    cfg = load_config(cfg_path)
    data = ingest(cfg)
    for index, month in enumerate(cfg.window()):
        candidates = data.month_idx <= month_index(month)
        snapshot = citegraph.induced(data.graph, candidates)
        seed_of_month = cfg.base_seed + index
        k = int(np.floor(cfg.sample_fraction * snapshot.num_nodes))
        perm = np.random.Generator(np.random.PCG64(seed_of_month)).permutation(snapshot.num_nodes)
        keep = np.zeros(snapshot.num_nodes, dtype=bool)
        keep[perm[:k]] = True
        want = citegraph.induced(snapshot, keep)
        got = citegraph.sample_nodes(data.graph, candidates, cfg.sample_fraction, seed_of_month)
        for name in ("node_ids", "out_indptr", "out_targets", "in_indptr", "in_sources"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert np.array_equal(compute_month(cfg, data, month, index).member_ids, want.node_ids)
    assert got.num_edges > 0  # the last month's sample cites earlier months


class TestScoresCsv:
    def test_round_trip(self, tmp_path):
        cfg_path = make_config(tmp_path, last_month="2014-02")
        generate_inputs(cfg_path, months=2)
        assert main(["compute", "--config", str(cfg_path)]) == 0
        cfg = load_config(cfg_path)
        data = ingest(cfg)
        computed = compute_month(cfg, data, "2014-02", 1)
        for aspect in ASPECTS:
            path = Path(cfg.output_dir) / "scores" / f"{aspect}_2014-02.csv"
            values, scored = read_scores_csv(data.hierarchy, path, aspect, "2014-02")
            # every row names the aspect and the month the file holds
            other = "usefulness" if aspect != "usefulness" else "influence"
            for wrong in ((other, "2014-02"), (aspect, "2014-01")):
                with pytest.raises(ValueError) as exc:
                    read_scores_csv(data.hierarchy, path, *wrong)
                assert str(exc.value).startswith(f"{path}: line 3: ")
            assert scored.any()
            # 17 significant digits give back every value's bits
            expected_values, expected_scored = aspect_scores(computed, aspect)
            assert np.array_equal(scored, expected_scored)
            assert np.array_equal(values, expected_values)


CHAIN = ["ingest", "compute", "fuse", "trend", "evaluate", "export-plots"]


def results(out_dir: Path) -> dict[str, bytes]:
    """Every output file but the mirrors."""
    return {
        name: data
        for name, data in read_all_outputs(out_dir).items()
        if not name.endswith((".npy", ".mirror.json"))
    }


def drop_mirror_records(out_dir: Path) -> None:
    for record in out_dir.rglob("*.mirror.json"):
        record.unlink()


def run_stages(cfg_path: Path, stages, capsys) -> list[tuple[int, str]]:
    """The exit code and stderr of each stage."""
    capsys.readouterr()
    runs = []
    for stage in stages:
        code = main([stage, "--config", str(cfg_path)])
        runs.append((code, capsys.readouterr().err))
    return runs


def assert_mirrors_hold_parsed_arrays(cfg: PipelineConfig) -> None:
    """Each mirror array has the dtype, shape and bytes that the text
    parsers return for the files it was made from."""
    out = Path(cfg.output_dir)
    mirrored = {str(p.relative_to(out))[: -len(".npy")]: np.load(p) for p in out.rglob("*.npy")}
    drop_mirror_records(out)
    with open(cfg.hierarchy) as fh:
        h, _ = parse_hierarchy(fh)
    with open(cfg.articles) as fh:
        articles = parse_articles(fh)
    with open(cfg.citations) as fh:
        edges = citegraph.parse_citations(fh)
    parsed = {
        f"ingest/{'graph' if name in GRAPH_ARRAYS else 'annotations'}.{name}": array
        for name, array in ingest_arrays(h, articles, edges).items()
    }
    parsed.update(zip(("scores.values", "scores.scored"), pipeline._load_scores(cfg, h)))
    members = pipeline._load_members(cfg, h)
    parsed["members.ids"] = np.concatenate(members)
    parsed["members.indptr"] = np.cumsum([0, *map(len, members)])
    rankings = ("rankings.rrf", "rankings.global_rank", "rankings.level_rank")
    parsed.update(zip(rankings, pipeline._load_rankings(cfg, h)))
    assert mirrored.keys() == parsed.keys()
    for name, array in parsed.items():
        got = mirrored[name]
        assert (got.dtype, got.shape, got.tobytes()) == (array.dtype, array.shape, array.tobytes())


@pytest.fixture()
def mirror_loads(monkeypatch):
    """(mirror name, whether it was used) of every mirror.load call."""
    calls = []
    load = mirror.load

    def spy(stem, *args):
        arrays = load(stem, *args)
        calls.append((stem.name, arrays is not None))
        return arrays

    monkeypatch.setattr(mirror, "load", spy)
    return calls


def edit_line(path: Path, pick, change) -> None:
    """Replace the first line for which `pick` holds by `change(line)`."""
    lines = path.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if pick(line))
    lines[at] = change(lines[at])
    path.write_text("\n".join(lines) + "\n")


def article_edit(line: str) -> str:
    row = json.loads(line)
    row["mesh"] = ["D000001", "D000002"] if row.get("mesh") != ["D000001", "D000002"] else []
    return json.dumps(row)


class TestMirrors:
    def test_mirrors_hold_what_the_parsers_return(self, prepared):
        cfg_path, cfg = prepared
        for stage in ("ingest", "compute", "fuse"):
            assert main([stage, "--config", str(cfg_path)]) == 0
        out = Path(cfg.output_dir)
        records = ["ingest/annotations", "ingest/graph", "scores", "members", "rankings"]
        assert all((out / f"{name}.mirror.json").exists() for name in records)
        assert_mirrors_hold_parsed_arrays(cfg)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mirrors_hold_what_the_parsers_return_by_seed(self, tmp_path, seed):
        cfg_path = make_config(tmp_path, base_seed=seed, last_month="2014-03", sample_fraction=0.5)
        generate_inputs(cfg_path, months=3, articles=300)
        for stage in ("ingest", "compute", "fuse"):
            assert main([stage, "--config", str(cfg_path)]) == 0
        assert_mirrors_hold_parsed_arrays(load_config(cfg_path))

    def test_score_mirror_keeps_the_bits_the_reader_gives(self, prepared, monkeypatch):
        cfg_path, cfg = prepared
        compute_month = pipeline.compute_month

        def odd_values(cfg, data, month, index):
            result = compute_month(cfg, data, month, index)
            values, scored = result.values[0], result.scored[0]
            values[np.flatnonzero(scored)[:3]] = [-0.0, -np.nan, -np.inf]
            values[~scored] = 7.0  # not written, so the reader gives 0
            return result

        monkeypatch.setattr(pipeline, "compute_month", odd_values)
        assert main(["compute", "--config", str(cfg_path)]) == 0
        monkeypatch.undo()
        assert main(["fuse", "--config", str(cfg_path)]) == 0
        # "-0" reads back as -0.0 and "nan" as float("nan"), whose sign is +
        values = np.load(Path(cfg.output_dir) / "scores.values.npy")[:, 0]
        assert (np.signbit(values) & (values == 0)).any() and not (values == 7.0).any()
        assert np.isnan(values).any() and not np.signbit(values[np.isnan(values)]).any()
        assert main(["ingest", "--config", str(cfg_path)]) == 0
        assert_mirrors_hold_parsed_arrays(cfg)

    @pytest.mark.parametrize(
        "edit",
        ["article", "article-broken", "score-row", "score-row-broken", "rankings-row",
         "rankings-row-broken"],
    )
    def test_edit_after_its_stage_gives_a_fresh_parse(self, prepared, capsys, mirror_loads, edit):
        cfg_path, cfg = prepared
        out = Path(cfg.output_dir)
        kind = edit.removesuffix("-broken")
        producer, name = {
            "article": ("ingest", "annotations"),
            "score-row": ("compute", "scores"),
            "rankings-row": ("fuse", "rankings"),
        }[kind]
        done = CHAIN.index(producer) + 1
        assert run_stages(cfg_path, CHAIN[:done], capsys) == [(0, "")] * done
        before = results(out)
        if kind == "article":
            path = Path(cfg.articles)
            pick = lambda line: '"2014-03"' in line  # noqa: E731
            change = (lambda line: line[:-1]) if edit.endswith("broken") else article_edit
        elif kind == "score-row":
            path = out / "scores" / "influence_2014-02.csv"
            pick = lambda line: line.startswith("A,1,influence,")  # noqa: E731
            value = "x" if edit.endswith("broken") else "-1"
            change = lambda line: line.rsplit(",", 1)[0] + f",{value}"  # noqa: E731
        else:
            path = out / "rankings.csv"
            pick = lambda line: line.startswith("2014-01,global,")  # noqa: E731
            value = "x" if edit.endswith("broken") else "0.5"
            change = lambda line: ",".join(line.split(",")[:3] + [value] + line.split(",")[4:])  # noqa: E731
        edit_line(path, pick, change)
        mirror_loads.clear()
        stale = run_stages(cfg_path, CHAIN[done:], capsys), results(out)
        assert (name, False) in mirror_loads and (name, True) not in mirror_loads
        drop_mirror_records(out)
        fresh = run_stages(cfg_path, CHAIN[done:], capsys), results(out)
        assert stale == fresh
        if edit.endswith("broken"):
            assert any(code == 1 and err.startswith(f"error: {path}: line ") for code, err in stale[0])
        else:
            assert stale[0] == [(0, "")] * (len(CHAIN) - done) and stale[1] != before

    @pytest.mark.parametrize(
        "damage",
        ["ingest/annotations.ids.npy", "ingest/graph.out_targets.npy", "scores.values.npy",
         "members.ids.npy", "rankings.rrf.npy", "ingest/annotations.mirror.json",
         "ingest/graph.mirror.json", "scores.mirror.json", "members.mirror.json",
         "rankings.mirror.json", "hierarchy-swapped", "window-changed", "code-changed"],
    )
    def test_damaged_mirror_is_not_used(self, prepared, capsys, monkeypatch, mirror_loads, damage):
        cfg_path, cfg = prepared
        out = Path(cfg.output_dir)
        name = Path(damage).name.split(".")[0]
        producer = {"annotations": "ingest", "graph": "ingest", "rankings": "fuse"}.get(name, "compute")
        done = CHAIN.index(producer) + 1
        with monkeypatch.context() as m:
            if damage == "code-changed":  # ingest and compute write records of other code
                m.setattr(mirror, "code_digest", lambda: "0" * 64)
                name = "scores"
            assert run_stages(cfg_path, CHAIN[:done], capsys) == [(0, "")] * done
        if damage == "hierarchy-swapped":
            with open(cfg.hierarchy, "a") as fh:
                fh.write("Z99\t\tnode Z99\n")
            name = "scores"
        elif damage == "window-changed":
            cfg_path.write_text(cfg_path.read_text() + 'last_month = "2014-05"\n')
            name = "scores"
        elif damage.endswith(".npy"):
            data = bytearray((out / damage).read_bytes())
            data[-1] ^= 1
            (out / damage).write_bytes(bytes(data))
        elif damage != "code-changed":
            (out / damage).unlink()
        mirror_loads.clear()
        damaged = run_stages(cfg_path, CHAIN[done:], capsys), results(out)
        assert (name, False) in mirror_loads and (name, True) not in mirror_loads
        assert damaged[0] == [(0, "")] * (len(CHAIN) - done)
        drop_mirror_records(out)
        assert (run_stages(cfg_path, CHAIN[done:], capsys), results(out)) == damaged

    def test_mirror_from_other_code_is_not_used(self, prepared, capsys, monkeypatch):
        # Code whose article parser took "false" for true left a mirror that
        # marks the first article retracted; today's parser rejects the row.
        cfg_path, cfg = prepared
        articles = Path(cfg.articles)
        edit_line(articles, lambda line: True,
                  lambda line: json.dumps({**json.loads(line), "retracted": "false"}))

        def lenient(fh):
            text = fh.read().replace('"retracted": "false"', '"retracted": true')
            return parse_articles(io.StringIO(text))

        with monkeypatch.context() as m:
            m.setattr(mirror, "code_digest", lambda: "0" * 64)
            m.setattr(pipeline, "parse_articles", lenient)
            assert run_stages(cfg_path, ["ingest"], capsys) == [(0, "")]
        error = f"error: {articles}: line 1: 'retracted' must be true or false\n"
        assert run_stages(cfg_path, ["compute"], capsys) == [(1, error)]

    def test_failed_ingest_leaves_output_dir_untouched(self, prepared, capsys):
        cfg_path, cfg = prepared
        out = Path(cfg.output_dir)
        citations = Path(cfg.citations)
        intact = citations.read_text()
        citations.write_text(intact + "2\tnot-an-id\n")
        assert run_stages(cfg_path, ["ingest"], capsys)[0][0] == 1
        assert not out.exists()
        citations.write_text(intact)
        assert run_stages(cfg_path, CHAIN, capsys) == [(0, "")] * len(CHAIN)
        written = read_all_outputs(out)
        edit_line(Path(cfg.articles), lambda line: True, lambda line: line[:-1])
        assert run_stages(cfg_path, ["ingest"], capsys)[0][0] == 1
        assert read_all_outputs(out) == written
