import math
from itertools import combinations

import numpy as np
import pytest
from scipy import stats

from kosrank.corpus import Article, store_from_articles
from kosrank.evaluate import (
    ChangeRecord,
    EvaluationError,
    aspect_correlation,
    evolution_cohorts,
    mann_whitney,
    parse_changes,
    retraction_cohorts,
)
from kosrank.hierarchy import build_hierarchy


class TestMannWhitney:
    def test_exact_golden(self):
        result = mann_whitney([1, 2, 3], [4, 5, 6])
        assert result.u_statistic == 0
        assert result.p_value == pytest.approx(0.1)
        assert result.method == "exact"

    def test_identical_singletons(self):
        result = mann_whitney([5.0], [5.0])
        assert result.p_value == 1.0

    def test_planted_shift_significant(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.0, 1.0, size=200)
        b = rng.normal(1.0, 1.0, size=200)
        result = mann_whitney(list(a), list(b))
        assert result.method == "normal-approx"
        assert result.p_value < 0.001

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = list(rng.normal(size=15))
        b = list(rng.normal(size=9))
        r1, r2 = mann_whitney(a, b), mann_whitney(b, a)
        assert r1.u_statistic == r2.u_statistic
        assert r1.p_value == pytest.approx(r2.p_value)

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            mann_whitney([], [1.0])

    def test_exact_vs_normal_agreement(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n1 = int(rng.integers(8, 11))
            n2 = int(rng.integers(8, 11))
            a = list(np.round(rng.normal(size=n1), 9))
            b = list(np.round(rng.normal(size=n2), 9))
            if len(set(a + b)) != n1 + n2:
                continue
            exact = mann_whitney(a, b)
            assert exact.method == "exact"
            # independent route: direct pairwise U and full enumeration
            u1 = sum(1 for x in a for y in b if x > y)
            u = min(u1, n1 * n2 - u1)
            assert exact.u_statistic == u
            pooled = sorted(a + b)
            count = sum(
                1
                for pos in combinations(range(1, n1 + n2 + 1), n1)
                if sum(pos) - n1 * (n1 + 1) / 2 <= u
            )
            assert exact.p_value == pytest.approx(
                min(1.0, 2 * count / math.comb(n1 + n2, n1))
            )
            # big-sample approximation stays close on tie-free samples
            forced = mann_whitney(list(a) * 2, list(b) * 2)  # ties force approx path
            assert forced.method == "normal-approx"

    def test_exact_p_equals_enumeration_bit_for_bit(self):
        for n1 in range(1, 7):
            for n2 in range(1, 7):
                a = [float(2 * i) for i in range(n1)]
                b = [float(2 * j + 1) for j in range(n2)]
                for shift in range(-2 * n2 - 2, 2 * n1 + 2, 2):
                    moved = [x + shift for x in a]
                    result = mann_whitney(moved, b)
                    assert result.method == "exact"
                    count = sum(
                        1
                        for pos in combinations(range(1, n1 + n2 + 1), n1)
                        if sum(pos) - n1 * (n1 + 1) / 2 <= result.u_statistic
                    )
                    assert result.p_value == min(1.0, 2.0 * count / math.comb(n1 + n2, n1))

    def test_exact_close_to_normal_approx(self):
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(200):
            if checked >= 100:
                break
            n1 = int(rng.integers(8, 11))
            n2 = int(rng.integers(8, 11))
            a = list(rng.normal(size=n1))
            b = list(rng.normal(size=n2))
            if len(set(a + b)) != n1 + n2:
                continue
            exact = mann_whitney(a, b).p_value
            approx = (stats.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic")).pvalue
            assert abs(exact - approx) < 0.02
            checked += 1
        assert checked == 100

    def test_normal_approx_matches_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = list(np.round(rng.normal(size=30), 1))  # rounding makes ties likely
            b = list(np.round(rng.normal(size=25), 1))
            ours = mann_whitney(a, b)
            theirs = stats.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic")
            assert ours.method == "normal-approx"
            assert ours.p_value == pytest.approx(theirs.pvalue, abs=1e-10)


class TestChanges:
    def test_parse(self):
        records = parse_changes(["2014AA\tD000001\textension\n", "# c\n"])
        assert records == [ChangeRecord("2014AA", "D000001", "extension")]

    def test_bad_type_rejected(self):
        with pytest.raises(EvaluationError, match="line 1"):
            parse_changes(["2014AA\tD000001\trenamed\n"])


def cohort_fixture():
    h = build_hierarchy(
        {"C01": "", "C02": "", "D01": ""},
        {"DX1": {"C01"}, "DX2": {"C02"}, "DX3": {"D01"}, "DX4": {"C01", "D01"}},
    )
    node_values = {"C01": 0.10, "C02": 0.07, "D01": 0.02, "C": 0.5, "D": 0.3}
    return h, node_values


class TestEvolutionCohorts:
    def test_partition(self):
        h, node_values = cohort_fixture()
        changes = [ChangeRecord("2014AA", "DX2", "move")]
        evolving, stable = evolution_cohorts(node_values, changes, h)
        assert evolving == [pytest.approx(0.07)]
        assert len(stable) == 3
        # DX4 spans two codes and sums them
        assert pytest.approx(0.12) in stable

    def test_no_changes_signals_skip(self):
        h, node_values = cohort_fixture()
        evolving, stable = evolution_cohorts(node_values, [], h)
        assert evolving == []
        assert len(stable) == 4

    def test_exhaustive_and_disjoint(self):
        h, node_values = cohort_fixture()
        changes = [ChangeRecord("2014AA", "DX1", "removal")]
        evolving, stable = evolution_cohorts(node_values, changes, h)
        assert len(evolving) + len(stable) == 4

    def test_boosted_cohort_scores_higher(self):
        rng = np.random.default_rng(6)
        codes = [f"C{i:02d}" for i in range(1, 100)]
        h = build_hierarchy(
            {c: "" for c in codes}, {f"D{i}": {c} for i, c in enumerate(codes)}
        )
        changed = {f"D{i}" for i in range(10)}
        node_values = {}
        for i, c in enumerate(codes):
            base = float(rng.random())
            node_values[c] = base * (2.5 if f"D{i}" in changed else 1.0)
        evolving, stable = evolution_cohorts(
            node_values, [ChangeRecord("2014AA", d, "extension") for d in sorted(changed)], h
        )
        assert np.mean(evolving) > np.mean(stable)


class TestRetractionCohorts:
    def test_sum_then_yearly_mean(self):
        h = build_hierarchy({"A01": "", "B01": ""}, {"DA": {"A01"}, "DB": {"B01"}})
        store = store_from_articles(
            [
                Article(1, "2014-01", ("DA", "DB"), retracted=True),
                Article(2, "2014-01", (), retracted=False),
            ]
        )
        monthly_values = {
            "2014-01": {"A01": 0.10, "B01": 0.07},
            "2014-02": {"A01": 0.20, "B01": 0.10},
        }
        members = {"2014-01": [1, 2], "2014-02": [1]}
        retracted, other = retraction_cohorts(store, monthly_values, members, h, 2014)
        assert retracted == [pytest.approx((0.17 + 0.30) / 2)]
        assert other == [0.0]  # annotation-free article scores zero

    def test_single_month_article(self):
        h = build_hierarchy({"A01": ""}, {"DA": {"A01"}})
        store = store_from_articles([Article(1, "2014-03", ("DA",))])
        monthly_values = {"2014-03": {"A01": 0.17}}
        retracted, other = retraction_cohorts(
            store, monthly_values, {"2014-03": [1]}, h, 2014
        )
        assert retracted == []
        assert other == [pytest.approx(0.17)]


class TestCorrelation:
    def test_self_and_affine(self):
        keys = [("D1", "2014-01"), ("D2", "2014-01"), ("D3", "2014-01")]
        x = {k: float(i) for i, k in enumerate(keys)}
        series = {"a": x, "b": {k: 2 * v + 1 for k, v in x.items()}}
        names, matrix = aspect_correlation(series, method="pearson")
        assert matrix[0, 0] == 1.0
        assert matrix[0, 1] == pytest.approx(1.0)

    def test_spearman_golden(self):
        keys = ["k1", "k2", "k3"]
        series = {
            "x": dict(zip(keys, [1.0, 2.0, 3.0])),
            "y": dict(zip(keys, [3.0, 1.0, 2.0])),
        }
        _, matrix = aspect_correlation(series, method="spearman")
        assert matrix[0, 1] == pytest.approx(-0.5)

    def test_too_few_pairs(self):
        series = {"x": {"a": 1.0, "b": 2.0}, "y": {"a": 1.0, "b": 2.0}}
        with pytest.raises(EvaluationError):
            aspect_correlation(series)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(7)
        keys = [f"k{i}" for i in range(40)]
        series = {
            name: {k: float(v) for k, v in zip(keys, rng.normal(size=40))}
            for name in ("a", "b", "c", "d", "e")
        }
        _, matrix = aspect_correlation(series, method="pearson")
        assert np.allclose(matrix, matrix.T, atol=1e-12)
        eigenvalues = np.linalg.eigvalsh(matrix)
        assert eigenvalues.min() > -1e-9
