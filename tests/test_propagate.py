import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import propagate_oracle, random_seeds, random_tree
from kosrank.hierarchy import Hierarchy
from kosrank.propagation import propagate


class TestWorkedExample:
    def test_golden_trace(self):
        h = Hierarchy({"R01.001": "", "R01.002": "", "R02": ""}, {})
        seeds = {"R01.001": 4.0, "R01.002": 2.0, "R01": 1.0, "R02": 3.0}
        assert propagate(h, seeds) == {
            "R01.001": 4.0,
            "R01.002": 2.0,
            "R01": 4.0,
            "R02": 3.0,
            "R": 3.5,
        }

    def test_single_seeded_root(self):
        h = Hierarchy({"R": ""}, {})
        assert propagate(h, {"R": 5.0}) == {"R": 5.0}

    def test_all_zero_seeds(self):
        h = Hierarchy({"R01.001": "", "R02": ""}, {})
        values = propagate(h, {c: 0.0 for c in h.nodes})
        assert values and all(v == 0.0 for v in values.values())

    def test_unknown_seed_rejected(self):
        h = Hierarchy({"R": ""}, {})
        with pytest.raises(KeyError):
            propagate(h, {"Z99": 1.0})

    def test_unseeded_leaves_absent_internal_present(self):
        h = Hierarchy({"R01": "", "R02": ""}, {})
        values = propagate(h, {"R01": 1.0})
        assert "R02" not in values
        assert values["R"] == pytest.approx(0.5)  # 1/|level 2| = 1/2


class TestOracleEquivalence:
    def test_random_trees_exact(self):
        rng = np.random.default_rng(404)
        for _ in range(100):
            h = random_tree(rng, max_nodes=200, max_depth=6)
            seeds = random_seeds(rng, h)
            actual = propagate(h, seeds)
            expected = propagate_oracle(h, seeds)
            assert actual.keys() == expected.keys()
            for code, value in expected.items():
                assert actual[code] == pytest.approx(value, abs=1e-12)


class TestProperties:
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=-8, max_value=8, allow_nan=False),
    )
    @settings(max_examples=250, deadline=None)
    def test_linearity(self, seed, scale):
        rng = np.random.default_rng(seed)
        h = random_tree(rng, max_nodes=60)
        s1 = random_seeds(rng, h)
        s2 = random_seeds(rng, h)
        scaled = propagate(h, {c: scale * v for c, v in s1.items()})
        base = propagate(h, s1)
        for code, value in base.items():
            assert scaled[code] == pytest.approx(scale * value, abs=1e-9)
        combined_seeds = dict.fromkeys(set(s1) | set(s2), 0.0)
        for c, v in s1.items():
            combined_seeds[c] += v
        for c, v in s2.items():
            combined_seeds[c] += v
        combined = propagate(h, combined_seeds)
        other = propagate(h, s2)
        for code in combined:
            expected = base.get(code, 0.0) + other.get(code, 0.0)
            assert combined[code] == pytest.approx(expected, abs=1e-9)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=250, deadline=None)
    def test_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        h = random_tree(rng, max_nodes=60)
        seeds = random_seeds(rng, h)
        if not seeds:
            return
        base = propagate(h, seeds)
        codes = sorted(seeds)
        bumped_code = codes[int(rng.integers(len(codes)))]
        bumped = dict(seeds)
        bumped[bumped_code] += abs(float(rng.normal())) + 0.1
        after = propagate(h, bumped)
        for code, value in base.items():
            assert after[code] >= value - 1e-12

    def test_sibling_order_irrelevant(self):
        h = Hierarchy({"R01": "", "R02": "", "R03": ""}, {})
        seeds_forward = {"R01": 1.0, "R02": 2.0, "R03": 3.0}
        seeds_reverse = {"R03": 3.0, "R02": 2.0, "R01": 1.0}
        assert propagate(h, seeds_forward) == propagate(h, seeds_reverse)
