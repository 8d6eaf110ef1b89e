import hashlib
import io
from collections import Counter

import numpy as np
import pytest

from kosrank.citegraph import build_graph
from kosrank.cli import main
from kosrank.config import PipelineConfig, write_config
from kosrank.months import month_index
from kosrank.synthgen import (
    InfeasibleConfigError,
    ScenarioConfig,
    generate,
    write_changes,
)


def small_config(**kwargs):
    defaults = dict(
        seed=7,
        months=3,
        articles_per_month=200,
        hierarchy_branching=(4, 3, 2),
        refs_mean=3.0,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestConfigValidation:
    def test_rates_bounded(self):
        with pytest.raises(InfeasibleConfigError):
            small_config(retraction_rate=1.5)

    def test_branching_positive(self):
        with pytest.raises(InfeasibleConfigError):
            small_config(hierarchy_branching=(0,))

    def test_too_many_categories(self):
        with pytest.raises(InfeasibleConfigError):
            small_config(hierarchy_branching=(17,))

    def test_refs_min_infeasible_with_one_month(self):
        with pytest.raises(InfeasibleConfigError):
            small_config(months=1, refs_min=2)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("evolving_boost", -1.0),  # the weights' running sum would fall
            ("evolving_boost", 0.0),
            ("retraction_bias_boost", -10.0),
            ("retraction_bias_boost", float("nan")),
            ("first_month", "2014-13"),  # would date the articles 2015-01 on
            ("first_month", "2014"),
        ],
    )
    def test_boost_not_positive_or_bad_first_month(self, field, value):
        with pytest.raises(InfeasibleConfigError):
            small_config(**{field: value})

    def test_first_month_drops_its_day(self):
        assert small_config(first_month="2014-03-15").first_month == "2014-03"


class TestGenerate:
    def test_edgeless_case(self):
        cfg = ScenarioConfig(seed=1, months=1, articles_per_month=10, refs_mean=0.0,
                             hierarchy_branching=(2, 2))
        _, store, (citing, cited), _ = generate(cfg)
        assert len(store) == 10
        assert len(citing) == 0 and len(cited) == 0

    def test_deterministic_given_seed(self):
        a = generate(small_config())
        b = generate(small_config())
        assert a[0] == b[0]
        assert a[1] == b[1]
        assert a[2][0].tolist() == b[2][0].tolist()
        assert a[2][1].tolist() == b[2][1].tolist()
        assert a[3] == b[3]
        different = generate(small_config(seed=8))
        assert different[2][0].tolist() != a[2][0].tolist()

    def test_temporal_acyclicity(self):
        hierarchy, store, (citing, cited), _ = generate(small_config())
        for u, v in zip(citing.tolist(), cited.tolist()):
            assert month_index(store.articles[u].month) > month_index(
                store.articles[v].month
            )

    def test_retraction_count_within_binomial_interval(self):
        cfg = small_config(months=5, articles_per_month=2000, retraction_rate=0.01)
        _, store, _, _ = generate(cfg)
        assert 60 <= sum(a.retracted for a in store.articles.values()) <= 140

    def test_descriptor_usage_heavy_tailed(self):
        _, store, _, _ = generate(ScenarioConfig(seed=42, months=2, articles_per_month=2500))
        usage = Counter()
        for article in store.articles.values():
            usage.update(article.descriptors)
        counts = sorted(usage.values())
        median = counts[len(counts) // 2]
        assert max(counts) >= 5 * median

    def test_evolving_descriptors_boosted(self):
        cfg = small_config(
            months=4, articles_per_month=2500, evolving_fraction=0.1, evolving_boost=2.5
        )
        _, store, _, changes = generate(cfg)
        evolving = {c.descriptor_id for c in changes}
        assert evolving
        usage = Counter()
        for article in store.articles.values():
            usage.update(article.descriptors)
        n_desc = len(set(usage) | evolving)
        mean_evolving = sum(usage[d] for d in evolving) / len(evolving)
        mean_rest = sum(v for d, v in usage.items() if d not in evolving) / (
            n_desc - len(evolving)
        )
        # Zipf noise is big; boosted group should still be clearly above average
        assert mean_evolving > mean_rest

    def test_change_records_use_valid_types_and_release(self):
        _, _, _, changes = generate(small_config(evolving_fraction=0.1))
        assert changes
        for record in changes:
            assert record.release == "2014AA"

    def test_edges_feed_build_graph_cleanly(self):
        _, store, edges, _ = generate(small_config())
        g = build_graph(edges, store)
        assert g.self_loops_dropped == 0
        assert g.unknown_dropped == 0
        assert g.duplicates_dropped == 0
        assert g.num_edges == len(edges[0])

    def test_changes_serialization(self):
        _, _, _, changes = generate(small_config(evolving_fraction=0.05))
        buffer = io.StringIO()
        write_changes(changes, buffer)
        lines = buffer.getvalue().splitlines()
        assert len(lines) == len(changes)
        assert lines[0].count("\t") == 2

    def test_written_files_are_pinned(self, tmp_path):
        # Recorded before the edge dedupe moved from np.unique to one sorted
        # key; any change to the RNG calls or their post-processing shows here.
        expected = {
            "hierarchy.tsv": "1b694fc44c9614f38ed3c46e40b2d4de8b852de9ebd7b4914ffa1406c0e44781",
            "articles.jsonl": "41d46a662d947d4eebd2470c2e75aa3b206741df151176d1b9eee0cbae1c2a1e",
            "citations.tsv": "f945957a3da665281103a5611d99ef95f66c8ca563c2a4cf2a27f2423f83e1a8",
            "changes.tsv": "5bfeca349b840b968c8249ca521be50b9664d69fe12a7ee1160e599a8e5ce215",
        }
        cfg = PipelineConfig(
            hierarchy=str(tmp_path / "hierarchy.tsv"),
            articles=str(tmp_path / "articles.jsonl"),
            citations=str(tmp_path / "citations.tsv"),
            changes=str(tmp_path / "changes.tsv"),
            base_seed=1,
            output_dir=str(tmp_path / "out"),
        )
        write_config(cfg, tmp_path / "pipeline.cfg")
        args = ["--months", "3", "--articles-per-month", "300"]
        assert main(["generate", "--config", str(tmp_path / "pipeline.cfg"), *args]) == 0
        for name, digest in expected.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
