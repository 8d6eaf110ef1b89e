import numpy as np
import pytest

from conftest import (
    disruption_oracle,
    pagerank_oracle,
    random_temporal_graph,
    temporal_store,
)
from kosrank.citegraph import build_graph
from kosrank.corpus import Article, store_from_articles
from kosrank.graphmetrics import (
    ArticleScores,
    aggregate_to_nodes,
    disruption_all,
    disruption_of,
    pagerank,
)


def graph_from(edges, n):
    store = temporal_store(np.random.default_rng(0), n)
    return build_graph(edges, store)


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


class TestAggregate:
    def test_division_by_network_size(self):
        scores = ArticleScores(values={1: 0.5}, graph_size_m=10)
        seeds = aggregate_to_nodes(scores, {1: {"D12.776"}})
        assert seeds == {"D12.776": pytest.approx(0.05)}

    def test_cancellation(self):
        scores = ArticleScores(values={1: 0.5, 2: -0.5}, graph_size_m=4)
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
        scores = ArticleScores(values=values, graph_size_m=29)
        seeds = aggregate_to_nodes(scores, mapping)
        for code in codes:
            brute = sum(v for i, v in values.items() if code in mapping[i]) / 29
            assert seeds.get(code, 0.0) == pytest.approx(brute, abs=1e-12)

    def test_unmapped_nodes_absent(self):
        scores = ArticleScores(values={1: 1.0}, graph_size_m=2)
        assert aggregate_to_nodes(scores, {}) == {}

    def test_zero_network_size_rejected(self):
        with pytest.raises(ValueError):
            aggregate_to_nodes(ArticleScores(values={}, graph_size_m=0), {})
