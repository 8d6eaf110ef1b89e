import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kosrank.fusion import (
    bottom_k_by_mean_rank,
    mean_ranks,
    per_level_ranking,
    rank_by_aspect,
    rank_trend_slope,
    rrf_fuse,
    top_k_by_mean_rank,
)
from kosrank.scores import ASPECTS


class TestRankByAspect:
    def test_descending(self):
        assert rank_by_aspect({"A": 0.9, "B": 0.1}) == {"A": 1, "B": 2}

    def test_tie_breaks_on_code(self):
        assert rank_by_aspect({"B": 0.5, "A": 0.5}) == {"A": 1, "B": 2}

    def test_negative_below_positive(self):
        ranks = rank_by_aspect({"A": -0.2, "B": 0.3})
        assert ranks["B"] < ranks["A"]

    def test_scope_filter(self):
        ranks = rank_by_aspect({"A": 1.0, "B": 2.0, "C": 3.0}, scope=["A", "C"])
        assert ranks == {"C": 1, "A": 2}

    def test_dense_bijection_and_sorted_round_trip(self):
        values = {f"A{i:02d}": (i * 37) % 11 for i in range(1, 30)}
        ranks = rank_by_aspect(values)
        assert sorted(ranks.values()) == list(range(1, 30))
        ordered = sorted(values, key=ranks.get)
        assert all(
            values[a] >= values[b] for a, b in zip(ordered, ordered[1:])
        )


class TestRrfFuse:
    def test_all_first_golden(self):
        fused = rrf_fuse({aspect: {"X": 1} for aspect in ASPECTS})
        assert fused.rrf["X"] == pytest.approx(4 / 61)
        assert f"{fused.rrf['X']:.6f}" == "0.065574"

    def test_staircase_golden(self):
        ranks = {a: {"X": r} for a, r in zip(ASPECTS, (1, 2, 3, 4))}
        # direct sum oracle: 1/61 + 1/62 + 1/63 + 1/64
        expected = sum(1.0 / (60 + r) for r in (1, 2, 3, 4))
        fused = rrf_fuse(ranks)
        assert fused.rrf["X"] == pytest.approx(expected, abs=1e-15)
        assert fused.rrf["X"] == pytest.approx(0.06402049075403121, abs=1e-15)

    def test_dominance_two_nodes(self):
        # X ranked 1 in three aspects and 2 in one always beats the complement
        for flipped in ASPECTS:
            ranks = {
                a: ({"X": 2, "Y": 1} if a == flipped else {"X": 1, "Y": 2})
                for a in ASPECTS
            }
            fused = rrf_fuse(ranks)
            assert fused.rank["X"] == 1 and fused.rank["Y"] == 2

    def test_missing_aspect_contributes_zero(self):
        ranks = {a: {"X": 1} for a in ASPECTS}
        ranks["usefulness"] = {"Y": 1}
        fused = rrf_fuse(ranks)
        assert fused.rrf["X"] == pytest.approx(3 / 61)
        assert fused.rrf["Y"] == pytest.approx(1 / 61)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            rrf_fuse({a: {} for a in ASPECTS}, k=0)

    def test_value_bounds(self):
        fused = rrf_fuse({a: {"X": 1, "Y": 2} for a in ASPECTS})
        for value in fused.rrf.values():
            assert 0.0 < value <= 4 / 61

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
        raw = {
            a: {code: float(vals[i]) for code, vals in table.items()}
            for i, a in enumerate(ASPECTS)
        }
        ranks = {a: rank_by_aspect(raw[a]) for a in ASPECTS}
        fused = rrf_fuse(ranks)
        # strictly increasing affine map on one aspect's raw scores
        raw[aspect] = {c: factor * v + shift for c, v in raw[aspect].items()}
        ranks2 = {a: rank_by_aspect(raw[a]) for a in ASPECTS}
        fused2 = rrf_fuse(ranks2)
        assert fused2.rank == fused.rank
        assert fused2.rrf == fused.rrf

    def test_improving_one_rank_strictly_increases(self):
        ranks = {a: {"X": 3, "Y": 1, "Z": 2} for a in ASPECTS}
        fused = rrf_fuse(ranks)
        better = {a: dict(r) for a, r in ranks.items()}
        better["influence"]["X"] = 2
        fused2 = rrf_fuse(better)
        assert fused2.rrf["X"] > fused.rrf["X"]


class TestPerLevel:
    def test_slice_and_rerank(self):
        fused = rrf_fuse({a: {"C": 1, "C01": 2, "C02": 3} for a in ASPECTS})
        level2 = per_level_ranking(fused, 2)
        assert set(level2.rrf) == {"C01", "C02"}
        assert level2.rank == {"C01": 1, "C02": 2}
        assert level2.scope == "level-2"


class TestTrend:
    def test_golden_slope(self):
        assert rank_trend_slope([5, 3, 3, 1]) == pytest.approx(-4 / 3)

    def test_constant_series(self):
        assert rank_trend_slope([2, 2, 2]) == 0.0

    def test_two_points(self):
        assert rank_trend_slope([1, 2]) == 1.0

    def test_too_short(self):
        with pytest.raises(ValueError):
            rank_trend_slope([1])


class TestTopBottom:
    def test_mean_rank_key(self):
        means = mean_ranks([{"A": 1}, {"A": 1}, {"A": 2}])
        assert means["A"] == pytest.approx(4 / 3)

    def test_mean_rank_ordering(self):
        means = {"A": 1.4, "B": 1.2, "C": 5.0}
        assert top_k_by_mean_rank(means, 2) == ["B", "A"]
        assert bottom_k_by_mean_rank(means, 2) == ["C", "A"]
