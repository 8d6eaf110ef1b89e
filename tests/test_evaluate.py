import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from scipy import stats

from conftest import annotation_matrix, evolution_cohorts_oracle, random_tree
from kosrank.evaluate import (
    ChangeRecord,
    EvaluationError,
    _average_ranks,
    correlation_matrix,
    evolution_cohorts,
    mann_whitney,
    parse_changes,
    retraction_split,
)
from kosrank.hierarchy import build_hierarchy


class TestAverageRanks:
    # values drawn with many ties, both signed zeros, infinities and subnormals
    POOL = np.array([-np.inf, -1.5, -1e-300, -5e-324, -0.0, 0.0, 5e-324, 1e-300, 1.0, 1.5, np.inf])

    def test_equal_to_rankdata_bit_for_bit(self):
        rng = np.random.default_rng(8)
        for _ in range(2000):
            x = rng.choice(self.POOL, size=int(rng.integers(1, 40)))
            if rng.random() < 0.5:
                x = np.where(rng.random(len(x)) < 0.5, x, rng.normal(size=len(x)))
            ranks, counts = _average_ranks(x)
            expected = stats.rankdata(x)
            assert ranks.dtype == expected.dtype
            assert ranks.tobytes() == expected.tobytes()
            assert np.array_equal(counts, np.unique(x, return_counts=True)[1])

    def test_nan_anywhere_makes_every_rank_nan(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            x = rng.choice(self.POOL, size=int(rng.integers(1, 20)))
            x[rng.integers(len(x))] = np.nan
            ranks, counts = _average_ranks(x)
            assert np.isnan(ranks).all() and np.isnan(stats.rankdata(x)).all()
            assert np.array_equal(counts, np.unique(x, return_counts=True)[1])


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

    @pytest.mark.parametrize(
        "release",
        ["AA", "201AA", "AA2014", "\uff12\uff10\uff11\uff14AA"],
        ids=["letters", "three-digits", "year-last", "full-width-digits"],
    )
    def test_release_must_start_with_a_year(self, release):
        with pytest.raises(EvaluationError, match=f"line 2: release '{release}' does not"):
            parse_changes(["2014AA\tD000001\textension\n", f"{release}\tD000002\tmove\n"])


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
        evolving, stable = evolution_cohorts(h, *h.node_vector(node_values), {"DX2"})
        assert evolving == [pytest.approx(0.07)]
        assert len(stable) == 3
        # DX4 spans two codes and sums them
        assert pytest.approx(0.12) in stable

    def test_no_changes_signals_skip(self):
        h, node_values = cohort_fixture()
        evolving, stable = evolution_cohorts(h, *h.node_vector(node_values), set())
        assert evolving == []
        assert len(stable) == 4

    def test_exhaustive_and_disjoint(self):
        h, node_values = cohort_fixture()
        evolving, stable = evolution_cohorts(h, *h.node_vector(node_values), {"DX1"})
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
        evolving, stable = evolution_cohorts(h, *h.node_vector(node_values), changed)
        assert np.mean(evolving) > np.mean(stable)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_descriptor_map_loop(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, max_nodes=80)
        descriptor_map = {
            f"D{i:03d}": set(rng.choice(tree.codes, size=int(rng.integers(1, 4))).tolist())
            for i in range(int(rng.integers(1, 40)))
        }
        h = build_hierarchy(dict(tree.labels), descriptor_map)
        node_means = {
            code: float(rng.normal()) for code in h.codes if rng.random() < 0.5
        }
        changed = {d for d in descriptor_map if rng.random() < 0.3}
        values, scored = h.node_vector(node_means)
        assert evolution_cohorts(h, values, scored, changed) == evolution_cohorts_oracle(
            h, node_means, changed
        )


class TestRetractionCohorts:
    def test_sum_then_yearly_mean(self):
        h = build_hierarchy({"A01": "", "B01": ""}, {"DA": {"A01"}, "DB": {"B01"}})
        # article 1 (retracted) is in both months, article 2 only in 2014-01
        rows, _ = h.incidence(*annotation_matrix([("DA", "DB"), ()]))
        monthly_values = [{"A01": 0.10, "B01": 0.07}, {"A01": 0.20, "B01": 0.10}]
        retracted, other = retraction_split(
            rows,
            np.array([True, False]),
            [np.array([0, 1]), np.array([0])],
            [h.node_vector(values)[0] for values in monthly_values],
        )
        assert retracted == [pytest.approx((0.17 + 0.30) / 2)]
        assert other == [0.0]  # annotation-free article scores zero

    def test_single_month_article(self):
        h = build_hierarchy({"A01": ""}, {"DA": {"A01"}})
        rows, _ = h.incidence(*annotation_matrix([("DA",)]))
        retracted, other = retraction_split(
            rows, np.array([False]), [np.array([0])], [h.node_vector({"A01": 0.17})[0]]
        )
        assert retracted == []
        assert other == [pytest.approx(0.17)]


class TestCorrelation:
    def test_self_and_affine(self):
        x = np.arange(3.0)
        matrix = correlation_matrix(np.vstack([x, 2 * x + 1]), method="pearson")
        assert matrix[0, 0] == 1.0
        assert matrix[0, 1] == pytest.approx(1.0)

    def test_spearman_golden(self):
        matrix = correlation_matrix(np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]]), "spearman")
        assert matrix[0, 1] == pytest.approx(-0.5)

    def test_too_few_pairs(self):
        with pytest.raises(EvaluationError):
            correlation_matrix(np.array([[1.0, 2.0], [1.0, 2.0]]))

    def test_bits_do_not_depend_on_memory_layout(self):
        data = np.random.default_rng(3).normal(size=(5, 20_000))
        for method in ("pearson", "spearman"):
            expected = correlation_matrix(data, method=method)
            assert np.array_equal(correlation_matrix(np.asfortranarray(data), method), expected)
            sliced = np.hstack([data, data])[:, : data.shape[1]]
            assert np.array_equal(correlation_matrix(sliced, method), expected)

    @pytest.mark.parametrize("method", ["pearson", "spearman"])
    def test_constant_series_gives_nan_without_warning(self, method):
        data = np.array([[2.0, 2.0, 2.0, 2.0], [1.0, 3.0, 2.0, 4.0], [4.0, 1.0, 3.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = correlation_matrix(data, method)
        assert np.diag(matrix).tolist() == [1.0, 1.0, 1.0]
        assert np.isnan(matrix[0, 1:]).all() and np.isnan(matrix[1:, 0]).all()
        assert np.isfinite(matrix[1:, 1:]).all()

    def test_symmetric_psd(self):
        rng = np.random.default_rng(7)
        matrix = correlation_matrix(rng.normal(size=(5, 40)), method="pearson")
        assert np.allclose(matrix, matrix.T, atol=1e-12)
        eigenvalues = np.linalg.eigvalsh(matrix)
        assert eigenvalues.min() > -1e-9
