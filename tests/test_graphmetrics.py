import os
import sys
import threading

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
from kosrank import graphmetrics
from kosrank.citegraph import build_graph
from kosrank.corpus import Article
from kosrank.graphmetrics import (
    ArticleScores,
    aggregate_to_nodes,
    disruption_all,
    disruption_of,
    pagerank,
)


@pytest.fixture
def set_batch_work(monkeypatch):
    """Sets `graphmetrics.BATCH_WORK`, the sweep's batch size, for one test."""
    return lambda work: monkeypatch.setattr(graphmetrics, "BATCH_WORK", work)


@pytest.fixture
def set_workers(monkeypatch):
    """Sets `graphmetrics.WORKERS`, the sweep's thread count, for one test."""
    return lambda workers: monkeypatch.setattr(graphmetrics, "WORKERS", workers)


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

    def test_sweep_equals_single(self, set_batch_work):
        set_batch_work(500)
        rng = np.random.default_rng(55)
        _, g = random_temporal_graph(rng, 150)
        sweep = disruption_all(g)
        assert sweep.graph_size_m == g.num_nodes
        for raw in g.node_ids:
            assert sweep.values[int(raw)] == disruption_of(g, int(raw))


def oracle_scores(g):
    return np.array([disruption_oracle(g, int(v)) for v in g.node_ids], dtype=np.float64)


class TestDisruptionSweep:
    """`disruption_all` against the set oracle, bit for bit."""

    # 1 and 4 give single-focal batches; the default runs everything in one.
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("batch_work", [1, 4, 37, 5_000_000])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_set_oracle(self, set_batch_work, set_workers, seed, batch_work, workers):
        set_batch_work(batch_work)
        _, g = random_temporal_graph(np.random.default_rng(300 + seed), 90, mean_refs=4.0)
        set_workers(1)
        serial = disruption_all(g).scores
        set_workers(workers)
        scores = disruption_all(g).scores
        assert np.array_equal(scores, oracle_scores(g))
        assert np.array_equal(scores.view(np.int64), serial.view(np.int64))

    # Every node cited: a directed 12-cycle with four chords.  One node cited:
    # articles 2..8 cite article 1, and 9 and 10 cite nothing, so every focal
    # but 1 is uncited, with n_k = 6 (2..8) or all counts 0 (9, 10).
    CITED_GRAPHS = {
        "every": ([(i, i % 12 + 1) for i in range(1, 13)]
                  + [(i, (i + 4) % 12 + 1) for i in range(1, 13, 3)], 12, 12),
        "one": ([(i, 1) for i in range(2, 9)], 10, 1),
    }

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("batch_work", [1, 5_000_000])
    @pytest.mark.parametrize("cited", CITED_GRAPHS)
    def test_every_or_one_node_cited(self, set_batch_work, set_workers, cited, batch_work,
                                     workers):
        set_batch_work(batch_work)
        set_workers(workers)
        edges, n, cited_nodes = self.CITED_GRAPHS[cited]
        g = graph_from(edges, n)
        assert np.count_nonzero(np.diff(g.incoming.indptr)) == cited_nodes
        want = np.array([disruption_of(g, int(v)) for v in g.node_ids], dtype=np.float64)
        # Through the int64 view, an uncited focal's 0.0 is checked to its sign bit.
        assert np.array_equal(disruption_all(g).scores.view(np.int64), want.view(np.int64))

    def test_no_sizing_pass(self, monkeypatch, set_batch_work, set_workers):
        # scipy's `@` sizes its output by csr_matmat_maxnnz before the numeric
        # pass; the sweep sizes each span's output by its work bound instead.
        def refused(*args):
            raise AssertionError("the sweep ran scipy's sizing pass")

        for name, module in list(sys.modules.items()):
            if name.startswith("scipy.sparse") and hasattr(module, "csr_matmat_maxnnz"):
                monkeypatch.setattr(module, "csr_matmat_maxnnz", refused)
        set_batch_work(37)
        set_workers(2)
        _, g = random_temporal_graph(np.random.default_rng(8), 90, mean_refs=4.0)
        assert np.array_equal(disruption_all(g).scores, oracle_scores(g))

    def test_empty_graph(self, set_batch_work):
        set_batch_work(1)
        g = build_graph(pair_arrays([]), store_from_articles([]))
        sweep = disruption_all(g)
        assert sweep.scores.dtype == np.float64
        assert len(sweep.scores) == len(sweep.node_ids) == 0

    def test_edgeless_graph(self, set_batch_work):
        set_batch_work(1)
        g = graph_from([], 7)
        assert disruption_all(g).scores.tolist() == [0.0] * 7

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_gapped_ids(self, set_batch_work, set_workers, seed, workers):
        set_batch_work(3)
        rng = np.random.default_rng(seed)
        n = 80
        ids = 10**12 + 7 * np.arange(n)
        store = store_from_articles(Article(int(i), "2014-01", ()) for i in ids)
        citing = rng.integers(1, n, size=300)
        cited = rng.integers(0, citing)  # earlier articles only
        g = build_graph((ids[citing], ids[cited]), store)
        set_workers(1)
        serial = disruption_all(g).scores
        set_workers(workers)
        scores = disruption_all(g).scores
        assert np.array_equal(scores, oracle_scores(g))
        assert np.array_equal(scores.view(np.int64), serial.view(np.int64))

    @pytest.mark.parametrize("shared", [125, 126, 256, 300, 512])
    def test_many_shared_references(self, monkeypatch, shared):
        # Focal 1 and its citer 2 both cite articles 3 .. shared + 2, so the
        # largest out-degree is shared + 1 and K is shared + 2.  The weighted
        # product holds shared + K at [1, 2], `shared` at [2, 1] and the
        # out-degrees on the diagonal.  Its data take the smallest unsigned
        # type that holds 2K: uint8 up to 125 shared references, uint16 from
        # 126.  In int8, 256 and 512 would wrap to explicit zeros, which
        # scipy drops.
        types, smallest = [], np.min_scalar_type

        def recorded_type(value):
            types.append(smallest(value))
            return types[-1]

        monkeypatch.setattr(np, "min_scalar_type", recorded_type)
        refs = range(3, shared + 3)
        edges = [(2, 1)] + [(1, r) for r in refs] + [(2, r) for r in refs]
        store = store_from_articles(Article(i, "2014-01", ()) for i in range(1, shared + 3))
        g = build_graph(pair_arrays(edges), store)
        scores = disruption_all(g).scores
        assert types == [np.uint8 if shared <= 125 else np.uint16]
        assert scores[:3].tolist() == [-1.0, 0.0, 1.0]
        assert np.array_equal(scores, oracle_scores(g))


class TestSweepThreads:
    """The sweep's helper threads start only for several spans and end with the call."""

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
    def test_workers_are_the_cpus_this_process_may_use(self):
        assert graphmetrics.WORKERS == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize(("workers", "batch_work"), [(2, 5_000_000), (1, 1)])
    def test_one_span_or_one_worker_starts_no_thread(
        self, set_batch_work, set_workers, monkeypatch, workers, batch_work
    ):
        set_workers(workers)
        set_batch_work(batch_work)

        def no_pool(*args, **kwargs):
            raise AssertionError("the sweep started a thread")

        monkeypatch.setattr(graphmetrics, "ThreadPoolExecutor", no_pool)
        _, g = random_temporal_graph(np.random.default_rng(5), 90, mean_refs=4.0)
        assert np.array_equal(disruption_all(g).scores, oracle_scores(g))

    def test_no_thread_outlives_a_call(self, set_batch_work, set_workers):
        set_batch_work(1)
        set_workers(2)
        _, g = random_temporal_graph(np.random.default_rng(6), 90, mean_refs=4.0)
        before = threading.active_count()
        scores = disruption_all(g).scores
        assert threading.active_count() == before
        assert np.array_equal(scores, oracle_scores(g))

    def test_helper_error_leaves_the_call(self, set_batch_work, set_workers, monkeypatch):
        set_batch_work(1)
        set_workers(2)
        _, g = random_temporal_graph(np.random.default_rng(7), 90, mean_refs=4.0)
        before = threading.active_count()
        failed = threading.Event()
        calls_after_failure = []
        diff = np.diff

        def diff_failing_on_the_helper(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                failed.set()
                raise RuntimeError("span failed")
            if threading.active_count() > before:
                # The caller holds its span until the helper has failed on the next.
                assert failed.wait(timeout=30)
                calls_after_failure.append(1)
            return diff(*args, **kwargs)

        monkeypatch.setattr(np, "diff", diff_failing_on_the_helper)
        with pytest.raises(RuntimeError, match="span failed"):
            disruption_all(g)
        assert failed.is_set()
        assert threading.active_count() == before
        # The caller finished the span it held, if any, and took no other.
        assert len(calls_after_failure) <= 1

    def test_more_threads_than_cpus_with_fast_switching(self, set_batch_work, set_workers):
        # A span lost or taken twice from the shared queue would leave a slice unset.
        set_batch_work(1)
        set_workers(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(3):
                _, g = random_temporal_graph(np.random.default_rng(400 + seed), 90, mean_refs=4.0)
                assert np.array_equal(disruption_all(g).scores, oracle_scores(g))
        finally:
            sys.setswitchinterval(interval)


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

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    def test_slices_sum_as_one_pass(self, monkeypatch, chunk):
        monkeypatch.setattr(graphmetrics, "AGGREGATE_CHUNK", chunk)
        rng = np.random.default_rng(9)
        ids, values = np.arange(1, 101), rng.normal(size=100)
        mapping = {
            i: set(rng.choice(["A", "B", "C"], size=int(rng.integers(1, 4)), replace=False))
            for i in range(1, 101)
            if rng.random() < 0.8
        }
        expected: dict[str, float] = {}
        for article_id, score in zip(ids.tolist(), values.tolist()):
            for code in sorted(mapping.get(article_id, ())):
                expected[code] = expected.get(code, 0.0) + score
        seeds = aggregate_to_nodes(article_scores(ids, values), mapping)
        assert seeds == {code: total / 100 for code, total in expected.items()}

    def test_zero_network_size_rejected(self):
        with pytest.raises(ValueError):
            aggregate_to_nodes(article_scores([], []), {})
