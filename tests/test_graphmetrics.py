import numpy as np
import pytest

from conftest import (
    disruption_oracle,
    pagerank_oracle,
    pair_arrays,
    random_temporal_graph,
    store_from_articles,
    temporal_store,
)
from kosrank.citegraph import build_graph
from kosrank.corpus import Article
from kosrank.graphmetrics import (
    ArticleScores,
    aggregate_to_nodes,
    disruption_all,
    disruption_of,
    pagerank,
)


def graph_from(edges, n):
    store = temporal_store(np.random.default_rng(0), n)
    return build_graph(pair_arrays(edges), store)


class TestDisruption:
    def test_symmetric_cancellation(self):
        # focal 1 with reference 2; one pure citer, one bridging citer, one k-citer
        g = graph_from([(1, 2), (3, 1), (4, 1), (4, 2), (5, 2)], 5)
        assert disruption_of(g, 1) == 0.0

    def test_two_i_one_j_one_k(self):
        g = graph_from(
            [(1, 2), (3, 1), (4, 1), (5, 1), (5, 2), (6, 2)], 6
        )
        assert disruption_of(g, 1) == pytest.approx(0.25)

    def test_no_references_maximal(self):
        g = graph_from([(2, 1), (3, 1)], 3)
        assert disruption_of(g, 1) == 1.0

    def test_isolated_node_zero(self):
        g = graph_from([], 1)
        assert disruption_of(g, 1) == 0.0

    def test_range_and_sign_flip(self):
        # 1 i-citer vs 2 j-citers mirrors 2 i vs 1 j with the opposite sign
        g_pos = graph_from([(1, 2), (3, 1), (4, 1), (5, 1), (5, 2)], 6)
        g_neg = graph_from([(1, 2), (3, 1), (4, 1), (4, 2), (5, 1), (5, 2)], 6)
        d_pos, d_neg = disruption_of(g_pos, 1), disruption_of(g_neg, 1)
        assert -1.0 <= d_neg < 0 < d_pos <= 1.0

    def test_k_citer_shrinks_magnitude(self):
        base = [(1, 2), (3, 1)]
        g = graph_from(base, 6)
        with_k = graph_from(base + [(4, 2)], 6)
        assert abs(disruption_of(with_k, 1)) < abs(disruption_of(g, 1))

    def test_matches_set_oracle_on_random_dags(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            _, g = random_temporal_graph(rng, 100)
            for focal in rng.choice(g.node_ids, size=20, replace=False):
                assert disruption_of(g, int(focal)) == disruption_oracle(g, int(focal))

    def test_sweep_equals_single(self):
        rng = np.random.default_rng(55)
        _, g = random_temporal_graph(rng, 150)
        sweep = disruption_all(g, batch_work=500)
        assert sweep.graph_size_m == g.num_nodes
        for raw in g.node_ids:
            assert sweep.values[int(raw)] == disruption_of(g, int(raw))


def oracle_scores(g):
    return np.array([disruption_oracle(g, int(v)) for v in g.node_ids], dtype=np.float64)


class TestDisruptionSweep:
    """`disruption_all` against the set oracle, bit for bit."""

    # 1 and 4 put chunk boundaries inside a citing article's row of edges
    # and give single-focal batches; the default runs everything in one.
    @pytest.mark.parametrize("batch_work", [1, 4, 37, 5_000_000])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_set_oracle(self, seed, batch_work):
        _, g = random_temporal_graph(np.random.default_rng(300 + seed), 90, mean_refs=4.0)
        assert np.array_equal(disruption_all(g, batch_work=batch_work).scores, oracle_scores(g))

    def test_empty_graph(self):
        g = build_graph(pair_arrays([]), store_from_articles([]))
        sweep = disruption_all(g, batch_work=1)
        assert sweep.scores.dtype == np.float64
        assert len(sweep.scores) == len(sweep.node_ids) == 0

    def test_edgeless_graph(self):
        g = graph_from([], 7)
        assert disruption_all(g, batch_work=1).scores.tolist() == [0.0] * 7

    @pytest.mark.parametrize("seed", range(3))
    def test_gapped_ids(self, seed):
        rng = np.random.default_rng(seed)
        n = 80
        ids = 10**12 + 7 * np.arange(n)
        store = store_from_articles(Article(int(i), "2014-01", ()) for i in ids)
        citing = rng.integers(1, n, size=300)
        cited = rng.integers(0, citing)  # earlier articles only
        g = build_graph((ids[citing], ids[cited]), store)
        assert np.array_equal(disruption_all(g, batch_work=3).scores, oracle_scores(g))

    @pytest.mark.parametrize("shared", [256, 300, 512])
    def test_many_shared_references(self, shared):
        # Focal 1 and its citer 2 both cite articles 3 .. shared + 2.  The
        # product counts `shared` at [1, 2] and [2, 1], and at least as much
        # on both diagonals: in int8, 256 and 512 wrap to explicit zeros,
        # which scipy drops.  The boolean product keeps every entry.
        refs = range(3, shared + 3)
        edges = [(2, 1)] + [(1, r) for r in refs] + [(2, r) for r in refs]
        store = store_from_articles(Article(i, "2014-01", ()) for i in range(1, shared + 3))
        g = build_graph(pair_arrays(edges), store)
        scores = disruption_all(g).scores
        assert scores[:3].tolist() == [-1.0, 0.0, 1.0]
        assert np.array_equal(scores, oracle_scores(g))

    @pytest.mark.parametrize("batch_work", [0, -5])
    def test_batch_work_below_one_is_an_error(self, batch_work):
        g = graph_from([(2, 1)], 2)
        with pytest.raises(ValueError, match="^batch_work must be at least 1, got -?\\d+$"):
            disruption_all(g, batch_work=batch_work)


class TestPagerank:
    def test_three_cycle_fixed_point(self):
        g = graph_from([(1, 2), (2, 3), (3, 1)], 3)
        scores = pagerank(g)
        assert scores.converged
        for v in scores.values.values():
            assert v == pytest.approx(1.0)

    def test_two_node_golden(self):
        g = graph_from([(2, 1)], 2)
        scores = pagerank(g)
        assert scores.values[2] == pytest.approx(0.15)
        assert scores.values[1] == pytest.approx(0.2775)

    def test_edgeless_graph_all_beta(self):
        g = graph_from([], 4)
        scores = pagerank(g, alpha=0.85)
        for v in scores.values.values():
            assert v == pytest.approx(0.15)

    def test_minimum_is_beta(self):
        rng = np.random.default_rng(77)
        _, g = random_temporal_graph(rng, 80)
        scores = pagerank(g)
        assert min(scores.values.values()) >= 0.15 - 1e-12

    def test_alpha_validation(self):
        g = graph_from([], 2)
        with pytest.raises(ValueError):
            pagerank(g, alpha=1.0)

    def test_non_convergence_flag(self):
        g = graph_from([(1, 2), (2, 3), (3, 1), (1, 3)], 3)
        scores = pagerank(g, tol=1e-30, max_iter=3)
        assert scores.converged is False

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(202)
        for _ in range(50):
            n = int(rng.integers(2, 51))
            _, g = random_temporal_graph(rng, n)
            expected = pagerank_oracle(g)
            actual = pagerank(g).values
            for node, value in expected.items():
                assert abs(actual[node] - value) < 1e-8


def article_scores(ids, scores):
    return ArticleScores(np.asarray(ids, dtype=np.int64), np.asarray(scores, dtype=np.float64))


class TestAggregate:
    def test_division_by_network_size(self):
        scores = article_scores(range(1, 11), [0.5] + [0.0] * 9)
        seeds = aggregate_to_nodes(scores, {1: {"D12.776"}})
        assert seeds == {"D12.776": pytest.approx(0.05)}

    def test_cancellation(self):
        scores = article_scores([1, 2, 3, 4], [0.5, -0.5, 0.0, 0.0])
        seeds = aggregate_to_nodes(scores, {1: {"C"}, 2: {"C"}})
        assert seeds["C"] == pytest.approx(0.0)

    def test_multi_node_article_contributes_full_score(self):
        rng = np.random.default_rng(8)
        values = {i: float(rng.normal()) for i in range(1, 30)}
        codes = ["A", "B", "C"]
        mapping = {
            i: {codes[j] for j in rng.choice(3, size=int(rng.integers(1, 4)), replace=False)}
            for i in values
        }
        scores = article_scores(list(values), list(values.values()))
        seeds = aggregate_to_nodes(scores, mapping)
        for code in codes:
            brute = sum(v for i, v in values.items() if code in mapping[i]) / 29
            assert seeds.get(code, 0.0) == pytest.approx(brute, abs=1e-12)

    def test_unmapped_nodes_absent(self):
        scores = article_scores([1, 2], [1.0, 0.0])
        assert aggregate_to_nodes(scores, {}) == {}

    def test_zero_network_size_rejected(self):
        with pytest.raises(ValueError):
            aggregate_to_nodes(article_scores([], []), {})
