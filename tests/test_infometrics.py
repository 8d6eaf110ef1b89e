import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from conftest import random_tree, usefulness_oracle
from kosrank.hierarchy import build_hierarchy, membership
from kosrank.infometrics import (
    MappingCounts,
    category_utility,
    informativeness,
    subtree_counts,
)


def flat_two_category_tree():
    return build_hierarchy({"D": "", "E": ""}, {})


def incidence_of(h, groups):
    """Article x node incidence, one row per list of tree codes."""
    incidence, unknown = membership(groups, h.position, len(h.codes))
    assert unknown == 0
    return incidence


def closed_of(h, groups):
    """The closure product `incidence @ h.closure` of those rows."""
    return incidence_of(h, groups) @ h.closure


def random_groups(rng, h, n_articles, n_marks):
    """Random per-article code lists, `n_marks` marks over `n_articles`."""
    groups = [[] for _ in range(n_articles)]
    for _ in range(n_marks):
        groups[int(rng.integers(n_articles))].append(h.codes[int(rng.integers(len(h.codes)))])
    return groups


class TestMappingCounts:
    def test_propagation_chain(self):
        h = build_hierarchy({"D12.776": ""}, {})
        counts = subtree_counts(h, closed_of(h, [["D12.776"]]))
        assert counts.propagated["D12.776"] == 1
        assert counts.propagated["D12"] == 1
        assert counts.propagated["D"] == 1

    def test_sibling_leaves_sum_at_parent(self):
        h = build_hierarchy({"D12.001": "", "D12.002": ""}, {})
        counts = subtree_counts(h, closed_of(h, [["D12.001"], ["D12.002"]]))
        assert counts.propagated["D12"] == 2

    def test_multi_branch_article(self):
        h = build_hierarchy({"C01": "", "D12": ""}, {})
        counts = subtree_counts(h, closed_of(h, [["C01", "D12"]]))
        assert counts.propagated["C"] == 1
        assert counts.propagated["D"] == 1

    def test_recurrence_invariant(self):
        rng = np.random.default_rng(17)
        h = random_tree(rng, max_nodes=80)
        incidence = incidence_of(h, random_groups(rng, h, 100, 200))
        direct = dict(zip(h.codes, np.asarray(incidence.sum(axis=0)).ravel().tolist()))
        counts = subtree_counts(h, incidence @ h.closure)
        for code in h.nodes:
            expected = direct[code] + sum(
                counts.propagated[c] for c in h.children_of(code)
            )
            assert counts.propagated[code] == expected
            assert counts.propagated[code] >= direct[code] >= 0


class TestInformativeness:
    def test_entropy_term_golden(self):
        h = flat_two_category_tree()
        counts = subtree_counts(h, closed_of(h, [["D"], ["D"], ["D"], ["E"]]))
        values = informativeness(counts)
        assert values["D"] == pytest.approx(0.3113, abs=5e-5)
        assert values["E"] == pytest.approx(0.5000, abs=5e-5)

    def test_single_node_level_scores_zero(self):
        h = build_hierarchy({"D": ""}, {})
        counts = subtree_counts(h, closed_of(h, [["D"]]))
        assert informativeness(counts)["D"] == 0.0

    def test_surprisal_golden(self):
        # 70% vs 2% usage shares: the rare concept is considerably more informative
        counts = MappingCounts(propagated={"D": 70, "E": 2}, level_totals={1: 100})
        values = informativeness(counts, mode="surprisal")
        assert values["D"] == pytest.approx(0.5146, abs=5e-5)
        assert values["E"] == pytest.approx(5.6439, abs=5e-5)
        assert values["E"] > values["D"]

    def test_zero_probability_handling(self):
        h = flat_two_category_tree()
        counts = subtree_counts(h, closed_of(h, [["D"]]))
        entropy = informativeness(counts, mode="entropy-term")
        assert entropy["E"] == 0.0
        surprisal = informativeness(counts, mode="surprisal")
        assert "E" not in surprisal

    def test_empty_level_unscored(self):
        h = build_hierarchy({"D12": ""}, {})
        counts = subtree_counts(h, closed_of(h, []))
        assert informativeness(counts) == {}

    def test_unknown_mode(self):
        h = flat_two_category_tree()
        with pytest.raises(ValueError):
            informativeness(subtree_counts(h, closed_of(h, [])), mode="bogus")

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_level_sums_are_shannon_entropy(self, seed):
        rng = np.random.default_rng(seed)
        h = random_tree(rng, max_nodes=60)
        counts = subtree_counts(h, closed_of(h, random_groups(rng, h, 500, 120)))
        values = informativeness(counts)
        for level, level_codes in h.levels().items():
            total = counts.level_totals[level]
            if total == 0:
                continue
            level_sum = sum(values[c] for c in level_codes)
            probabilities = [counts.propagated[c] / total for c in level_codes]
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
        for parent in h.nodes:
            for child in h.children_of(parent):
                assert rows[parent] >= rows[child]


class TestUsefulness:
    def golden_values(self):
        h = build_hierarchy({"C01": "", "C02": ""}, {})
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
