import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fused_oracle
from kosrank.fusion import mean_ranks, rank_by_aspect, rank_trend_slope, rrf_fuse, top_k
from kosrank.hierarchy import Hierarchy
from kosrank.pipeline import _fused
from kosrank.scores import ASPECTS


def ranks_of(values):
    """Ranks of a list of values, every position scored."""
    return rank_by_aspect(np.array(values, dtype=np.float64), np.ones(len(values), dtype=bool))


def fused_ranks(rrf):
    return rank_by_aspect(rrf, rrf > 0)


class TestRankByAspect:
    def test_descending(self):
        assert ranks_of([0.9, 0.1]).tolist() == [1, 2]

    def test_tie_breaks_on_code(self):
        assert ranks_of([0.5, 0.5]).tolist() == [1, 2]

    def test_negative_below_positive(self):
        ranks = ranks_of([-0.2, 0.3])
        assert ranks[1] < ranks[0]

    def test_dense_bijection_and_sorted_round_trip(self):
        values = [(i * 37) % 11 for i in range(1, 30)]
        ranks = ranks_of(values)
        assert sorted(ranks.tolist()) == list(range(1, 30))
        ordered = np.argsort(ranks)
        assert all(values[a] >= values[b] for a, b in zip(ordered, ordered[1:]))

    def test_unscored_positions_are_unranked(self):
        values = np.array([5.0, 9.0, 1.0, 7.0])
        ranks = rank_by_aspect(values, np.array([True, False, True, True]))
        assert ranks.tolist() == [2, 0, 3, 1]

    def test_matches_sorted_oracle(self):
        # the order of sorted(codes, key=(-value, code)) over the scored codes
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(0, 40))
            values = rng.integers(-5, 5, size=n) / 4.0  # many ties, and -0.0
            scored = rng.random(n) < 0.7
            ordered = sorted(np.flatnonzero(scored).tolist(), key=lambda i: (-values[i], i))
            expected = np.zeros(n, dtype=np.int64)
            expected[ordered] = np.arange(1, len(ordered) + 1)
            assert np.array_equal(rank_by_aspect(values, scored), expected)


class TestRrfFuse:
    def test_all_first_golden(self):
        rrf = rrf_fuse([np.array([1])] * len(ASPECTS))
        assert rrf[0] == pytest.approx(4 / 61)
        assert f"{rrf[0]:.6f}" == "0.065574"

    def test_staircase_golden(self):
        ranks = [np.array([r]) for r in (1, 2, 3, 4)]
        # direct sum oracle: 1/61 + 1/62 + 1/63 + 1/64
        expected = sum(1.0 / (60 + r) for r in (1, 2, 3, 4))
        rrf = rrf_fuse(ranks)
        assert rrf[0] == pytest.approx(expected, abs=1e-15)
        assert rrf[0] == pytest.approx(0.06402049075403121, abs=1e-15)

    def test_dominance_two_nodes(self):
        # X ranked 1 in three aspects and 2 in one always beats the complement
        for flipped in ASPECTS:
            ranks = [np.array([2, 1] if a == flipped else [1, 2]) for a in ASPECTS]
            assert fused_ranks(rrf_fuse(ranks)).tolist() == [1, 2]

    def test_missing_aspect_contributes_zero(self):
        ranks = [np.array([0, 1] if a == "usefulness" else [1, 0]) for a in ASPECTS]
        rrf = rrf_fuse(ranks)
        assert rrf[0] == pytest.approx(3 / 61)
        assert rrf[1] == pytest.approx(1 / 61)

    def test_unranked_everywhere_is_zero(self):
        rrf = rrf_fuse([np.array([1, 0])] * len(ASPECTS))
        assert rrf[1] == 0.0 and fused_ranks(rrf).tolist() == [1, 0]

    def test_k_validation(self):
        with pytest.raises(ValueError):
            rrf_fuse([np.zeros(0, dtype=np.int64)] * len(ASPECTS), k=0)

    def test_value_bounds(self):
        for value in rrf_fuse([np.array([1, 2])] * len(ASPECTS)):
            assert 0.0 < value <= 4 / 61

    def test_matches_per_node_sum_oracle(self):
        # one node at a time, aspects in order, skipping unranked ones
        rng = np.random.default_rng(43)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            ranks = [ranks_of(rng.random(n)) * (rng.random(n) < 0.6) for _ in ASPECTS]
            k = int(rng.integers(1, 100))
            expected = []
            for i in range(n):
                total = 0.0
                for rank in ranks:
                    if rank[i]:
                        total += 1.0 / (k + int(rank[i]))
                expected.append(total)
            assert rrf_fuse(ranks, k=k).tolist() == expected

    @given(
        st.dictionaries(
            st.sampled_from([f"C{i:02d}" for i in range(1, 20)]),
            st.tuples(*(st.integers(min_value=-50, max_value=50) for _ in range(4))),
            min_size=2,
            max_size=12,
        ),
        st.sampled_from(ASPECTS),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_rescale_invariance(self, table, aspect, factor, shift):
        codes = sorted(table)
        raw = {a: np.array([float(table[c][i]) for c in codes]) for i, a in enumerate(ASPECTS)}
        rrf = rrf_fuse([ranks_of(raw[a]) for a in ASPECTS])
        # strictly increasing affine map on one aspect's raw scores
        raw[aspect] = factor * raw[aspect] + shift
        rrf2 = rrf_fuse([ranks_of(raw[a]) for a in ASPECTS])
        assert np.array_equal(fused_ranks(rrf2), fused_ranks(rrf))
        assert np.array_equal(rrf2, rrf)

    def test_improving_one_rank_strictly_increases(self):
        ranks = {a: np.array([3, 1, 2]) for a in ASPECTS}
        rrf = rrf_fuse([ranks[a] for a in ASPECTS])
        ranks["influence"] = np.array([2, 1, 2])
        rrf2 = rrf_fuse([ranks[a] for a in ASPECTS])
        assert rrf2[0] > rrf[0]


class TestPerLevel:
    def test_slice_and_rerank(self):
        h = Hierarchy({"C01": "", "C02": ""}, {})
        assert h.codes == ("C", "C01", "C02")
        rrf = rrf_fuse([np.array([1, 2, 3])] * len(ASPECTS))
        level2 = rank_by_aspect(rrf, (rrf > 0) & (h.level == 2))
        assert level2.tolist() == [0, 1, 2]


# ties, -0.0 beside 0.0, NaN of either sign and both infinities
ODD_VALUES = [0.0, -0.0, 1.0, 0.5, -2.0, np.nan, -np.nan, np.inf, -np.inf]


class TestFusedFromAspectRanks:
    """`pipeline._fused` fuses the int32 aspect ranks of compute's record and
    takes each level's ranks from the global order; the oracle ranks the
    scores of every aspect and then every scope by its own mask."""

    @staticmethod
    def assert_fused_as_oracle(level, values, scored, k):
        aspect_rank = np.zeros(values.shape, dtype=np.int32)
        for m, s in np.ndindex(values.shape[:2]):
            aspect_rank[m, s] = rank_by_aspect(values[m, s], scored[m, s])
        got, want = _fused(level, aspect_rank, k), fused_oracle(level, values, scored, k)
        assert len(got) == len(want) == 3
        for g, w in zip(got, want):
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())

    @pytest.mark.parametrize("k", [1, 60, 2**53])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_months(self, seed, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        level = rng.integers(1, 7, n)
        values = rng.choice(ODD_VALUES, size=(5, len(ASPECTS), n))
        scored = rng.random(values.shape) < 0.7
        scored[1] = False  # a month that scores nothing
        scored[3] = False
        scored[3, 2, rng.integers(n)] = True  # a month with one ranked node
        self.assert_fused_as_oracle(level, values, scored, k)
        assert scored[0].any()  # and a month with ranked nodes at several levels

    @pytest.mark.parametrize("k", [1, 60, 2**53])
    def test_one_level(self, k):
        rng = np.random.default_rng(11)
        values = rng.choice(ODD_VALUES, size=(3, len(ASPECTS), 250))
        scored = rng.random(values.shape) < 0.5
        self.assert_fused_as_oracle(np.ones(250, dtype=np.int64), values, scored, k)

    def test_level_ranks_of_a_hierarchy(self):
        h = Hierarchy({f"{c}{i:02d}": "" for c in "CDE" for i in range(1, 9)}, {})
        rng = np.random.default_rng(2)
        values = rng.choice(ODD_VALUES, size=(2, len(ASPECTS), len(h.codes)))
        scored = rng.random(values.shape) < 0.8
        self.assert_fused_as_oracle(h.level, values, scored, 60)

    @pytest.mark.parametrize("k", [1, 60])
    def test_rrf_fuse_of_int32_ranks_gives_the_int64_bits(self, k):
        rng = np.random.default_rng(4)
        small = [rank_by_aspect(rng.random(500), rng.random(500) < 0.7) for _ in ASPECTS]
        large = [rng.integers(0, 2**31 - 1 - k, 500) for _ in ASPECTS]  # 0 is unranked
        for ranks in (small, large):
            wide = rrf_fuse([r.astype(np.int64) for r in ranks], k=k)
            narrow = rrf_fuse([r.astype(np.int32) for r in ranks], k=k)
            assert (narrow.dtype, narrow.tobytes()) == (wide.dtype, wide.tobytes())


def slopes_of(series):
    """Slopes of one node's yearly mean ranks."""
    _, slope, _, _ = rank_trend_slope(np.array(series, dtype=np.float64)[:, None])
    return slope.tolist()


class TestTrend:
    def test_golden_slope(self):
        assert slopes_of([5, 3, 3, 1]) == [pytest.approx(-4 / 3)]

    def test_constant_series(self):
        assert slopes_of([2, 2, 2]) == [0.0]

    def test_two_points(self):
        assert slopes_of([1, 2]) == [1.0]

    def test_too_short(self):
        assert slopes_of([1]) == []

    def test_matches_per_node_loop(self):
        # each node's ranked years in order; unranked years (0) are skipped
        rng = np.random.default_rng(47)
        for _ in range(100):
            years, n = int(rng.integers(1, 6)), int(rng.integers(0, 20))
            yearly = rng.integers(1, 50, size=(years, n)) / rng.integers(1, 4, size=(years, n))
            yearly[rng.random((years, n)) < 0.4] = 0.0
            expected = []
            for i in range(n):
                series = [(y, v) for y, v in enumerate(yearly[:, i].tolist()) if v > 0]
                if len(series) >= 2:
                    slope = (series[-1][1] - series[0][1]) / (len(series) - 1)
                    expected.append((i, slope, series[0][0], series[-1][0]))
            got = list(zip(*(a.tolist() for a in rank_trend_slope(yearly))))
            assert got == expected


class TestTopBottom:
    def test_mean_rank_key(self):
        means = mean_ranks(np.array([[1], [1], [2]]))
        assert means[0] == pytest.approx(4 / 3)

    def test_unranked_months_are_skipped(self):
        means = mean_ranks(np.array([[1, 0], [0, 0], [2, 0]]))
        assert means.tolist() == [1.5, 0.0]

    def test_matches_int_division(self):
        # Python's int / int over the months that rank each node
        rng = np.random.default_rng(53)
        for _ in range(100):
            ranks = rng.integers(0, 3000, size=(int(rng.integers(0, 13)), int(rng.integers(0, 40))))
            ranks[rng.random(ranks.shape) < 0.3] = 0
            expected = []
            for column in ranks.T.tolist():
                ranked = [r for r in column if r > 0]
                expected.append(sum(ranked) / len(ranked) if ranked else 0.0)
            assert mean_ranks(ranks).tolist() == expected

    def test_mean_rank_ordering(self):
        means = np.array([1.4, 1.2, 5.0])  # nodes A, B, C
        assert top_k(means, 2).tolist() == [1, 0]
        assert top_k(-means, 2).tolist() == [2, 0]

    def test_ties_break_on_position_and_unranked_are_left_out(self):
        means = np.array([2.0, 1.0, 0.0, 2.0])
        assert top_k(means, 4).tolist() == [1, 0, 3]
        assert top_k(-means, 4).tolist() == [0, 3, 1]
