import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from conftest import (
    children_by_code, codes_by_level, level_of, membership, random_tree, usefulness_oracle,
)
from kosrank.hierarchy import Hierarchy
from kosrank.infometrics import category_utility, informativeness, subtree_counts
from kosrank.synthgen import ScenarioConfig, generate_columns


def flat_two_category_tree():
    return Hierarchy({"D": "", "E": ""}, {})


def incidence_of(h, groups):
    """Article x node incidence, one row per list of tree codes."""
    incidence, unknown = membership(groups, h.position, len(h.codes))
    assert unknown == 0
    return incidence


def closed_of(h, groups):
    """The closure product `incidence @ h.closure` of those rows."""
    return incidence_of(h, groups) @ h.closure


def by_code(h, vector):
    return dict(zip(h.codes, vector.tolist()))


def scored_values(h, groups, mode="entropy-term"):
    """code -> informativeness of the scored nodes, for those rows."""
    values, scored = informativeness(h, subtree_counts(closed_of(h, groups)), mode=mode)
    return {c: v for c, v, s in zip(h.codes, values.tolist(), scored.tolist()) if s}


def random_groups(rng, h, n_articles, n_marks):
    """Random per-article code lists, `n_marks` marks over `n_articles`."""
    groups = [[] for _ in range(n_articles)]
    for _ in range(n_marks):
        groups[int(rng.integers(n_articles))].append(h.codes[int(rng.integers(len(h.codes)))])
    return groups


class TestMappingCounts:
    def test_propagation_chain(self):
        h = Hierarchy({"D12.776": ""}, {})
        counts = by_code(h, subtree_counts(closed_of(h, [["D12.776"]])))
        assert counts["D12.776"] == 1
        assert counts["D12"] == 1
        assert counts["D"] == 1

    def test_sibling_leaves_sum_at_parent(self):
        h = Hierarchy({"D12.001": "", "D12.002": ""}, {})
        counts = by_code(h, subtree_counts(closed_of(h, [["D12.001"], ["D12.002"]])))
        assert counts["D12"] == 2

    def test_multi_branch_article(self):
        h = Hierarchy({"C01": "", "D12": ""}, {})
        counts = by_code(h, subtree_counts(closed_of(h, [["C01", "D12"]])))
        assert counts["C"] == 1
        assert counts["D"] == 1

    def test_recurrence_invariant(self):
        rng = np.random.default_rng(17)
        h = random_tree(rng, max_nodes=80)
        incidence = incidence_of(h, random_groups(rng, h, 100, 200))
        direct = by_code(h, np.asarray(incidence.sum(axis=0)).ravel())
        counts = by_code(h, subtree_counts(incidence @ h.closure))
        children = children_by_code(h)
        for code in h.nodes:
            expected = direct[code] + sum(counts[c] for c in children[code])
            assert counts[code] == expected
            assert counts[code] >= direct[code] >= 0


class TestInformativeness:
    def test_entropy_term_golden(self):
        h = flat_two_category_tree()
        values = scored_values(h, [["D"], ["D"], ["D"], ["E"]])
        assert values["D"] == pytest.approx(0.3113, abs=5e-5)
        assert values["E"] == pytest.approx(0.5000, abs=5e-5)

    def test_single_node_level_scores_zero(self):
        h = Hierarchy({"D": ""}, {})
        assert scored_values(h, [["D"]])["D"] == 0.0

    def test_surprisal_golden(self):
        # 70% vs 2% usage shares: the rare concept is considerably more informative
        h = Hierarchy({"D": "", "E": "", "F": ""}, {})
        values, scored = informativeness(h, np.array([70, 2, 28]), mode="surprisal")
        assert scored.all()
        values = by_code(h, values)
        assert values["D"] == pytest.approx(0.5146, abs=5e-5)
        assert values["E"] == pytest.approx(5.6439, abs=5e-5)
        assert values["E"] > values["D"]

    def test_zero_probability_handling(self):
        h = flat_two_category_tree()
        entropy = scored_values(h, [["D"]], mode="entropy-term")
        assert entropy["E"] == 0.0
        surprisal = scored_values(h, [["D"]], mode="surprisal")
        assert "E" not in surprisal

    def test_empty_level_unscored(self):
        h = Hierarchy({"D12": ""}, {})
        values, scored = informativeness(h, subtree_counts(closed_of(h, [])))
        assert not scored.any() and not values.any()

    def test_unknown_mode(self):
        h = flat_two_category_tree()
        with pytest.raises(ValueError):
            informativeness(h, subtree_counts(closed_of(h, [])), mode="bogus")

    @pytest.mark.parametrize("mode", ["entropy-term", "surprisal"])
    def test_matches_per_node_loop(self, mode):
        # p = count / level total as Python ints, then math.log2 per node.
        # The flat 28 : 3 split gives p = 28/31, where np.log2 and math.log2
        # differ in the last bit on some libm builds.
        rng = np.random.default_rng(29)
        cases = [(flat_two_category_tree(), np.array([28, 3]))]
        for _ in range(30):
            h = random_tree(rng, max_nodes=60)
            cases.append((h, subtree_counts(closed_of(h, random_groups(rng, h, 200, 80)))))
        for h, counts in cases:
            totals = {}
            for code, count in zip(h.codes, counts.tolist()):
                totals[level_of(code)] = totals.get(level_of(code), 0) + count
            expected = {}
            for code, count in zip(h.codes, counts.tolist()):
                total = totals[level_of(code)]
                if total == 0:
                    continue
                p = count / total
                if mode == "entropy-term":
                    expected[code] = -p * math.log2(p) if p > 0 else 0.0
                elif p > 0:
                    expected[code] = -math.log2(p)
            values, scored = informativeness(h, counts, mode=mode)
            actual = {c: v for c, v, s in zip(h.codes, values.tolist(), scored.tolist()) if s}
            assert actual == expected
            assert not values[~scored].any()

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_level_sums_are_shannon_entropy(self, seed):
        rng = np.random.default_rng(seed)
        h = random_tree(rng, max_nodes=60)
        counts = subtree_counts(closed_of(h, random_groups(rng, h, 500, 120)))
        values, _ = informativeness(h, counts)
        values, counts = by_code(h, values), by_code(h, counts)
        for level, level_codes in codes_by_level(h).items():
            total = sum(counts[c] for c in level_codes)
            if total == 0:
                continue
            level_sum = sum(values[c] for c in level_codes)
            probabilities = [counts[c] / total for c in level_codes]
            entropy = -sum(p * math.log2(p) for p in probabilities if p > 0)
            assert level_sum == pytest.approx(entropy, abs=1e-12)
            nonzero = sum(1 for p in probabilities if p > 0)
            assert entropy <= math.log2(nonzero) + 1e-12
            for c in level_codes:
                assert 0.0 <= values[c] <= math.log2(math.e) / math.e + 1e-12


class TestMappingMatrix:
    def test_ancestor_rows_are_supersets(self):
        rng = np.random.default_rng(23)
        h = random_tree(rng, max_nodes=60)
        closed = closed_of(h, random_groups(rng, h, 50, 100)).tocsc()
        rows = {code: set(closed[:, i].indices.tolist()) for i, code in enumerate(h.codes)}
        children = children_by_code(h)
        for parent in h.nodes:
            for child in children[parent]:
                assert rows[parent] >= rows[child]


class TestUsefulness:
    def golden_values(self):
        h = Hierarchy({"C01": "", "C02": ""}, {})
        values = category_utility(closed_of(h, [["C01"], ["C02"]]), len(h.codes))
        return dict(zip(h.codes, values.tolist()))

    def test_golden_values(self):
        values = self.golden_values()
        assert values["C"] == pytest.approx(0.5556, abs=5e-5)
        assert values["C01"] == pytest.approx(0.0278, abs=5e-5)

    def test_dense_branch_outranks_sparse(self):
        values = self.golden_values()
        assert values["C"] > values["C01"]

    def test_empty_row_scores_zero(self):
        # one article marking node 0 of two
        assert category_utility(sparse.csr_matrix([[1, 0]]), 2)[1] == 0.0

    def test_empty_matrix(self):
        assert len(category_utility(sparse.csr_matrix((0, 0), dtype=np.int32), 0)) == 0

    def test_sum_of_squares_adds_left_to_right_on_generated_months(self):
        # a compensated sum, which Python 3.12's `sum` over floats is, gives
        # other bits in each of these months
        h, columns, _, _ = generate_columns(ScenarioConfig(seed=42, months=3))
        incidence, _ = h.incidence(columns.vocabulary, columns.annotations)
        n = len(h.codes)
        for month in np.unique(columns.month_idx).tolist():
            closed = incidence[np.flatnonzero(columns.month_idx == month)] @ h.closure
            acc = 0.0
            for k in closed.getnnz(axis=1).tolist():
                acc += (k / n) ** 2
            row_len = closed.getnnz(axis=0)
            expected = row_len / int(row_len.sum()) * (row_len - acc)
            assert category_utility(closed, n).tobytes() == expected.tobytes(), month

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(1, 51))
            m = int(rng.integers(1, 51))
            codes = [f"A{i:02d}" for i in range(1, n + 1)]
            rows = {
                c: frozenset(
                    int(j) for j in range(m) if rng.random() < 0.3
                )
                for c in codes
            }
            expected = usefulness_oracle(rows, n)
            marks, _ = membership([rows[c] for c in codes], {j: j for j in range(m)}, m)
            actual = category_utility(marks.T, n)  # article x node
            for i, c in enumerate(codes):
                assert actual[i] == pytest.approx(expected[c], abs=1e-12)
