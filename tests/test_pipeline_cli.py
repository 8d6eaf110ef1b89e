import json
from pathlib import Path

import pytest

from conftest import usefulness_oracle
from kosrank import citegraph, graphmetrics, infometrics, propagation
from kosrank.cli import main
from kosrank.config import ConfigError, load_config, write_config, PipelineConfig
from kosrank.hierarchy import ancestors_of, parse_hierarchy
from kosrank.pipeline import compute_month, ingest
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


def read_all_outputs(out_dir: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(out_dir)): p.read_bytes()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


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
        [('base_seed = "seven"', "base_seed"), ('sample_fraction = "0.5"', "sample_fraction")],
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


class TestIngest:
    def test_valid_dataset_reports_counts(self, tmp_path, capsys):
        cfg_path = make_config(tmp_path)
        generate_inputs(cfg_path)
        assert main(["ingest", "--config", str(cfg_path)]) == 0
        report = capsys.readouterr().out
        assert "articles: 720" in report
        assert "edges kept:" in report
        assert "self-loops dropped: 0" in report

    def test_missing_citations_file_fails_with_path(self, tmp_path, capsys):
        cfg_path = make_config(tmp_path)
        generate_inputs(cfg_path)
        cfg = load_config(cfg_path)
        Path(cfg.citations).unlink()
        assert main(["ingest", "--config", str(cfg_path)]) != 0
        err = capsys.readouterr().err
        assert "citations.tsv" in err


class TestComputeFuseTrendEvaluate:
    @pytest.fixture()
    def prepared(self, tmp_path):
        cfg_path = make_config(tmp_path)
        generate_inputs(cfg_path)
        cfg = load_config(cfg_path)
        add_mapping_edge_cases(cfg, "2014-04")
        return cfg_path, cfg

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

    def test_unsampled_compute_matches_direct_module_calls(self, prepared):
        cfg_path, cfg = prepared
        data = ingest(cfg)
        month = "2014-04"
        result = compute_month(cfg, data, month, 3)
        # independent reconstruction at fraction 1.0: snapshot == sample
        snapshot = citegraph.cumulative_snapshot(data.graph, data.store, month)
        pr = graphmetrics.pagerank(snapshot)
        codes = {}
        for raw_id in snapshot.node_ids:
            mapped, _ = data.hierarchy.treenodes_of(
                data.store.articles[int(raw_id)].descriptors
            )
            if mapped:
                codes[int(raw_id)] = tuple(sorted(mapped))
        seeds = graphmetrics.aggregate_to_nodes(pr, codes)
        expected = propagation.propagate(data.hierarchy, seeds)
        assert result.scores["influence"].values == expected

        # the month's own mappings, from per-article treenodes_of calls
        h = data.hierarchy
        assert data.unknown_descriptor_refs == 1
        added = data.store.articles[int(data.store.ids[-1])]
        assert added.month == month and len(h.treenodes_of(added.descriptors)[0]) > 1
        pairs = []
        for article_id in sorted(data.store.articles_in_month(month)):
            mapped, _ = h.treenodes_of(data.store.articles[article_id].descriptors)
            pairs.extend((article_id, code) for code in sorted(mapped))
        counts = infometrics.mapping_counts(h, pairs)
        assert result.scores["informativeness"].values == infometrics.informativeness(
            counts, mode=cfg.informativeness_mode
        )
        rows = {code: set() for code in h.nodes}
        for article_id, code in pairs:
            for node in (code, *ancestors_of(code)):
                rows[node].add(article_id)
        matrix = infometrics.MappingMatrix(
            rows={code: frozenset(row) for code, row in rows.items()},
            n_nodes=len(h.nodes),
            m_articles=len({article_id for article_id, _ in pairs}),
        )
        oracle = usefulness_oracle(matrix)
        usefulness = result.scores["usefulness"].values
        assert usefulness.keys() == oracle.keys()
        for code, value in oracle.items():
            assert usefulness[code] == pytest.approx(value, abs=1e-12)

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

    def test_missing_upstream_outputs(self, prepared, capsys):
        cfg_path, _ = prepared
        assert main(["fuse", "--config", str(cfg_path)]) != 0
        assert "missing compute output" in capsys.readouterr().err


class TestScoresCsv:
    def test_round_trip(self, tmp_path):
        cfg_path = make_config(tmp_path, last_month="2014-02")
        generate_inputs(cfg_path, months=2)
        assert main(["compute", "--config", str(cfg_path)]) == 0
        cfg = load_config(cfg_path)
        for aspect in ASPECTS:
            path = Path(cfg.output_dir) / "scores" / f"{aspect}_2014-02.csv"
            with path.open() as fh:
                scores = read_scores_csv(fh)
            assert scores.aspect == aspect
            assert scores.month == "2014-02"
            assert scores.values
