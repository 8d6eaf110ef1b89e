import gc
import hashlib
import io
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    assert_same_columns,
    descriptors_of,
    store_from_articles,
    write_articles_oracle,
    write_citations_oracle,
)
from kosrank import corpus, synthgen
from kosrank.citegraph import build_graph, parse_citations, write_citations
from kosrank.cli import main
from kosrank.config import PipelineConfig, write_config
from kosrank.corpus import Article, parse_articles, write_articles
from kosrank.evaluate import write_changes
from kosrank.months import month_from_index, month_index
from kosrank.synthgen import InfeasibleConfigError, ScenarioConfig, generate, generate_columns


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


@pytest.fixture(scope="module")
def shaped():
    """The default hierarchy (3,040 descriptors) and 4,000 articles, 5% of
    them retracted: (hierarchy, usage counts of the articles that are not
    retracted, usage counts of the retracted ones)."""
    cfg = ScenarioConfig(seed=7, months=2, articles_per_month=2000, refs_mean=0.0,
                         retraction_rate=0.05)
    hierarchy, store, _, _ = generate(cfg)
    normal, retracted = Counter(), Counter()
    for article in store.articles.values():
        (retracted if article.retracted else normal).update(article.descriptors)
    return hierarchy, normal, retracted


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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", -1),  # numpy: "expected non-negative integer"
            ("first_month", "2014-13"),  # would date the articles 2015-01 on
            ("first_month", "2014"),
            ("first_month", "2014-02-30"),  # no such day: the articles were dated 2014-02
            ("refs_mean", float("nan")),  # numpy: "lam < 0 or lam is NaN"
            ("refs_mean", float("inf")),  # numpy: "lam value too large"
            ("refs_mean", -1.0),
            ("descriptors_per_article_mean", float("nan")),
            ("descriptors_per_article_mean", -0.5),
            ("pa_exponent", float("inf")),  # edges were written silently
            ("pa_exponent", -1.0),
        ],
    )
    def test_infeasible_value_is_rejected_by_name(self, field, value):
        with pytest.raises(InfeasibleConfigError, match=field):
            small_config(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("descriptors_per_article_mean", 1e30),  # numpy: "lam value too large"
            ("refs_mean", 1e30),
            ("retraction_rate", 1.5),
            ("seed", -1),
        ],
    )
    def test_message_names_the_field_and_its_value(self, field, value):
        with pytest.raises(InfeasibleConfigError) as exc:
            small_config(**{field: value})
        assert str(exc.value).startswith(f"{field} must be ")
        assert str(exc.value).endswith(f"got {value}")

    def test_last_month_past_9999_is_rejected(self):
        # the articles of 10000-01 on were written, which ingest rejects
        small_config(first_month="9999-06", months=7)  # up to 9999-12
        with pytest.raises(InfeasibleConfigError, match="^months: 8 from 9999-06 pass 9999$"):
            small_config(first_month="9999-06", months=8)

    def test_poisson_means_below_numpy_limit_are_accepted(self):
        # only the configs are built: generate would draw counts near 2**63
        limit = synthgen._POISSON_MEAN_LIMIT
        below, above = np.nextafter(limit, 0.0), np.nextafter(limit, math.inf)
        np.random.default_rng(0).poisson(below, size=0)
        small_config(refs_mean=below, descriptors_per_article_mean=below)
        with pytest.raises(ValueError, match="lam value too large"):
            np.random.default_rng(0).poisson(above, size=0)
        for field in ("refs_mean", "descriptors_per_article_mean"):
            with pytest.raises(InfeasibleConfigError, match=field):
                small_config(**{field: above})

    def test_overflowing_attachment_weights_are_rejected(self):
        # (indegree + 1) ** 1000 is inf from indegree 2 on; the draws used to
        # cite articles of the citing month itself
        with pytest.raises(InfeasibleConfigError, match="draw weights sum to inf"):
            generate(small_config(pa_exponent=1000.0))

    def test_first_month_drops_its_day(self):
        assert small_config(first_month="2014-03-15").first_month == "2014-03"
        assert small_config(first_month="2016-02-29").first_month == "2016-02"


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
            months=4, articles_per_month=2500, evolving_fraction=0.1
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

    def test_one_month_cites_nothing(self):
        # the first month has no earlier article to cite, whatever refs_mean asks
        _, store, (citing, cited), _ = generate(small_config(months=1, refs_mean=50.0))
        assert len(store) == 200
        assert len(citing) == len(cited) == 0

    def test_a_tenth_of_descriptors_map_to_two_nodes(self, shaped):
        hierarchy, _, _ = shaped
        sizes = Counter(len(codes) for codes in hierarchy.descriptor_map.values())
        n = sum(sizes.values())
        assert set(sizes) == {1, 2}
        # POLYHIERARCHY_FRACTION of 3,040 descriptors, within four binomial deviations
        expected = synthgen.POLYHIERARCHY_FRACTION * n
        spread = 4 * math.sqrt(expected * (1 - synthgen.POLYHIERARCHY_FRACTION))
        assert abs(sizes[2] - expected) <= spread

    def test_usage_falls_with_rank_by_the_zipf_exponent(self, shaped):
        _, normal, _ = shaped
        counts = sorted(normal.values(), reverse=True)[:300]
        slope = np.polyfit(np.log(np.arange(1, 301)), np.log(counts), 1)[0]
        assert abs(slope + synthgen.ZIPF_EXPONENT) < 0.08

    def test_retracted_articles_favour_the_popular_tenth(self, shaped):
        hierarchy, normal, retracted = shaped
        n_top = round(synthgen.RETRACTION_BIAS_FRACTION * len(hierarchy.descriptor_map))
        top = {d for d, _ in normal.most_common(n_top)}

        def share(usage):
            return sum(v for d, v in usage.items() if d in top) / sum(usage.values())

        # unbiased, both shares would be about a third; boosted, retracted
        # articles draw about two thirds of their descriptors from this tenth
        assert share(retracted) > 0.5 > share(normal)

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

    @pytest.mark.parametrize(
        "args, scenario, expected",
        [
            (
                ["--months", "3", "--articles-per-month", "300"],
                {},
                {
                    "hierarchy.tsv": "1b694fc44c9614f38ed3c46e40b2d4de8b852de9ebd7b4914ffa1406c0e44781",
                    "articles.jsonl": "41d46a662d947d4eebd2470c2e75aa3b206741df151176d1b9eee0cbae1c2a1e",
                    "citations.tsv": "f945957a3da665281103a5611d99ef95f66c8ca563c2a4cf2a27f2423f83e1a8",
                    "changes.tsv": "5bfeca349b840b968c8249ca521be50b9664d69fe12a7ee1160e599a8e5ce215",
                },
            ),
            (  # perfbench's kernel scenario, at 1,000 articles a month
                ["--months", "10", "--articles-per-month", "1000", "--refs-mean", "5.8",
                 "--retraction-rate", "0.0005"],
                dict(hierarchy_branching=(8, 6, 4), descriptors_per_article_mean=2.0,
                     pa_exponent=0.5),
                {
                    "hierarchy.tsv": "3289b90f6452469b97db8aeac89f4f4acce3615eb5ec4ac8068998ff2996305c",
                    "articles.jsonl": "ee7ff7066eaf083709593ca95b23e67d519e82a1a8b263233f4b680aa826c783",
                    "citations.tsv": "a46fc01fc34b3e6854f7f2c355d8fd190035882220fb7f10ed9dd2aa24a0fd6b",
                    "changes.tsv": "a16be83ece1db20b691d47c0bc77e1b6af8b24ca0fa98e4b23a1af12a3ec15d0",
                },
            ),
            # The hierarchy and the change records are drawn before the
            # articles, so below they are the first case's.
            (
                ["--months", "3", "--articles-per-month", "300", "--retraction-rate", "0"],
                {},
                {
                    "articles.jsonl": "d94caebbdd49337371cd244683f8a185a49679e69da5659b74e37b057169a8ef",
                    "citations.tsv": "f945957a3da665281103a5611d99ef95f66c8ca563c2a4cf2a27f2423f83e1a8",
                },
            ),
            (
                ["--months", "3", "--articles-per-month", "300", "--retraction-rate", "1"],
                {},
                {
                    "articles.jsonl": "4550e734de80fa9d6150b5a5a3791e41c9e520b5b2b61e83fcafa5b91404b1dd",
                    "citations.tsv": "f945957a3da665281103a5611d99ef95f66c8ca563c2a4cf2a27f2423f83e1a8",
                },
            ),
            (  # articles with no descriptors at all
                ["--months", "3", "--articles-per-month", "300"],
                dict(descriptors_per_article_mean=0.0),
                {
                    "articles.jsonl": "f01abc28945ce4da0f5bddb30277aad3959ce416915322544b6530c20a3cbc90",
                    "citations.tsv": "a09f619721004a4260f9399f9f323383c34f52eb7915fadb1ae5bf1aeb5da716",
                },
            ),
        ],
        ids=["default", "scale-shape", "no-retractions", "all-retracted", "no-descriptors"],
    )
    def test_written_files_are_pinned(self, tmp_path, monkeypatch, args, scenario, expected):
        # Recorded before the edge dedupe moved from np.unique to one sorted
        # key, and the shapes past the first before the per-article loop gave
        # way to one sorted (article, descriptor) key; any change to the RNG
        # calls or their post-processing shows here.  `scenario` sets the
        # fields the CLI has no option for.
        generated = []
        real = synthgen.generate_columns

        def shaped(s):
            generated.append(replace(s, **scenario))
            return real(generated[-1])

        monkeypatch.setattr(synthgen, "generate_columns", shaped)
        cfg = PipelineConfig(
            hierarchy=str(tmp_path / "hierarchy.tsv"),
            articles=str(tmp_path / "articles.jsonl"),
            citations=str(tmp_path / "citations.tsv"),
            changes=str(tmp_path / "changes.tsv"),
            base_seed=1,
            output_dir=str(tmp_path / "out"),
        )
        write_config(cfg, tmp_path / "pipeline.cfg")
        assert main(["generate", "--config", str(tmp_path / "pipeline.cfg"), *args]) == 0
        for name, digest in expected.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
        # the articles are the per-row text of the store that `generate` builds
        text = io.StringIO()
        write_articles_oracle(generate(*generated)[1], text)
        assert (tmp_path / "articles.jsonl").read_text() == text.getvalue()


# Shapes of the columns: articles with and without descriptors, retracted or not
COLUMN_SHAPES = [
    dict(),
    dict(retraction_rate=0.0),
    dict(retraction_rate=1.0, descriptors_per_article_mean=9.0),
    dict(descriptors_per_article_mean=0.0),
    dict(months=1, articles_per_month=1, hierarchy_branching=(1,)),
]


class TestColumns:
    @pytest.mark.parametrize("fields", COLUMN_SHAPES)
    def test_columns_are_the_parse_of_their_text(self, monkeypatch, fields):
        """Every block of the written text is read off its bytes: with the
        JSON decode made to raise, the parse still gives the columns."""
        _, columns, _, _ = generate_columns(small_config(**fields))
        text = io.StringIO()
        write_articles(columns, text)

        def decode(*args):
            raise AssertionError("a block was JSON-decoded")

        monkeypatch.setattr(corpus, "_chunk", decode)
        monkeypatch.setattr(corpus, "_checked_lines", decode)
        for block_lines in (corpus.BLOCK_LINES, 64):
            monkeypatch.setattr(corpus, "BLOCK_LINES", block_lines)
            text.seek(0)
            assert_same_columns(parse_articles(text), columns)

    @pytest.mark.parametrize("fields", COLUMN_SHAPES)
    def test_edges_are_the_parse_of_their_text(self, fields):
        _, _, (citing, cited), _ = generate_columns(small_config(**fields))
        text, expected = io.StringIO(), io.StringIO()
        write_citations(citing, cited, text)
        write_citations_oracle(citing, cited, expected)
        assert text.getvalue() == expected.getvalue()
        text.seek(0)
        again = parse_citations(text)
        assert again[0].tolist() == citing.tolist() and again[1].tolist() == cited.tolist()

    @pytest.mark.parametrize("fields", COLUMN_SHAPES)
    def test_generate_gives_the_store_of_the_columns(self, fields):
        cfg = small_config(**fields)
        h, columns, (citing, cited), changes = generate_columns(cfg)
        got = generate(cfg)
        rows = (a.tolist() for a in (columns.ids, columns.month_idx, columns.retracted))
        store = store_from_articles(
            Article(i, month_from_index(m), descriptors_of(columns, i), flag)
            for i, m, flag in zip(*rows))
        assert got[0] == h and got[1] == store and got[3] == changes
        descriptors = [a.descriptors for a in got[1].articles.values()]
        assert len(set(map(id, descriptors))) == len(set(descriptors))  # one tuple each
        assert got[2][0].tolist() == citing.tolist() and got[2][1].tolist() == cited.tolist()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_generate_pauses_the_collector_and_restores_its_state(self, monkeypatch, enabled):
        paused = []

        def article(*fields):
            paused.append(not gc.isenabled())
            return Article(*fields)

        monkeypatch.setattr(synthgen, "Article", article)
        (gc.enable if enabled else gc.disable)()
        try:
            generate(small_config(months=1))
            assert gc.isenabled() == enabled
            monkeypatch.setattr(synthgen, "Article", lambda *fields: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                generate(small_config(months=1))
            assert gc.isenabled() == enabled
        finally:
            gc.enable()
        assert paused and all(paused)
