import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ancestors_of,
    annotation_matrix,
    assert_keyed_layout,
    assert_same_csr,
    coo_pattern,
    forbid_sum_duplicates,
    level_of,
    membership,
    random_tree,
)
from kosrank.hierarchy import (
    Hierarchy,
    HierarchyError,
    is_tree_code,
    key_pattern,
    parent_of,
    parse_hierarchy,
    pattern,
    write_hierarchy,
)


def parse(text):
    return parse_hierarchy(io.StringIO(text))


def children(h, code):
    """Child codes of `code` read from the positional `parent` array, in code order."""
    return tuple(h.codes[i] for i in np.flatnonzero(h.parent == h.position[code]))


class TestTreeCodes:
    def test_grammar(self):
        assert is_tree_code("D")
        assert is_tree_code("D12")
        assert is_tree_code("D12.776")
        assert is_tree_code("M01.060.116")
        assert not is_tree_code("D1.77")
        assert not is_tree_code("d12")
        assert not is_tree_code("D12.")
        assert not is_tree_code("D123")
        assert not is_tree_code("")
        assert not is_tree_code("D１２")  # only ASCII digits
        assert not is_tree_code("D12\n")

    def test_levels(self):
        assert level_of("D") == 1
        assert level_of("D12") == 2
        assert level_of("D12.776") == 3
        assert level_of("M01.060.116") == 4
        h = Hierarchy({"D12.776": "", "M01.060.116": ""}, {})
        levels = {"D": 1, "D12": 2, "D12.776": 3, "M": 1, "M01": 2, "M01.060": 3, "M01.060.116": 4}
        assert {code: int(h.level[h.position[code]]) for code in h.codes} == levels

    def test_ancestors(self):
        assert ancestors_of("D") == []
        assert ancestors_of("D12") == ["D"]
        assert ancestors_of("M01.060.116") == ["M01.060", "M01", "M"]

    def test_parents(self):
        assert parent_of("D12.776") == "D12"
        assert parent_of("D12") == "D"
        assert parent_of("D") is None

    def test_parent_is_one_level_up(self):
        rng = np.random.default_rng(7)
        h = random_tree(rng)
        for code in h.nodes:
            if level_of(code) > 1:
                assert level_of(parent_of(code)) == level_of(code) - 1


class TestConstructor:
    def test_adds_missing_ancestors_with_empty_labels(self):
        h = Hierarchy({"D12.776": "Proteins"}, {})
        assert h.nodes == frozenset({"D", "D12", "D12.776"})
        assert h.codes == ("D", "D12", "D12.776")
        assert h.labels == {"D": "", "D12": "", "D12.776": "Proteins"}

    def test_adds_the_codes_of_descriptors(self):
        h = Hierarchy({}, {"D1": {"C01.002"}})
        assert h.codes == ("C", "C01", "C01.002")
        assert h.labels == dict.fromkeys(h.codes, "")
        assert h.descriptor_map == {"D1": frozenset({"C01.002"})}

    def test_descriptor_without_codes_rejected(self):
        with pytest.raises(HierarchyError, match="descriptor D1 maps to no codes"):
            Hierarchy({}, {"D1": set()})

    def test_equality_ignores_order_and_collection_type(self):
        h = Hierarchy({"D12": "x", "C01": "y"}, {"D2": {"C01"}, "D1": {"D12", "C01"}})
        same = Hierarchy({"C01": "y", "D12": "x", "D": "", "C": ""},
                         {"D1": frozenset({"C01", "D12"}), "D2": frozenset({"C01"})})
        assert h == same
        assert h != Hierarchy({"D12": "x", "C01": "z"}, {"D2": {"C01"}, "D1": {"D12", "C01"}})
        assert h != Hierarchy({"D12": "x", "C01": "y"}, {"D2": {"C01"}, "D1": {"D12"}})


class TestParse:
    def test_single_row_materializes_ancestors(self):
        h, autocreated = parse("D12.776\tD011506\tProteins\n")
        assert h.nodes == frozenset({"D", "D12", "D12.776"})
        assert h.descriptor_map["D011506"] == frozenset({"D12.776"})
        assert h.labels["D12.776"] == "Proteins"
        assert h.labels["D12"] == ""
        assert autocreated == 0

    def test_child_ordering_lexicographic(self):
        h, _ = parse("C14\tD1\tx\nC01\tD2\ty\n")
        assert children(h, "C") == ("C01", "C14")

    def test_malformed_code_reports_line(self):
        with pytest.raises(HierarchyError, match="line 2"):
            parse("C01\tD1\tx\nD1.77\tD2\ty\n")

    def test_duplicate_pair_rejected(self):
        with pytest.raises(HierarchyError, match="duplicate"):
            parse("C01\tD1\tx\nC01\tD1\tx\n")

    def test_mapping_to_unlisted_code_warns(self):
        h, autocreated = parse("C01\t\tInfections\nC02\tD9\t\n")
        assert "C02" in h.nodes
        assert h.labels["C02"] == ""
        assert autocreated == 1

    def test_comments_and_blanks_ignored(self):
        h, _ = parse("# header\n\nC01\tD1\tx\n")
        assert "C01" in h.nodes

    def test_roots_are_single_letters(self):
        h, _ = parse("C01.001\tD1\tx\nD12\tD2\ty\n")
        roots = [h.codes[i] for i in np.flatnonzero(h.parent < 0)]
        assert set(roots) == {"C", "D"}
        for code in roots:
            assert level_of(code) == 1


class TestQueries:
    def test_treenodes_of(self):
        h, _ = parse("D12.776\tD011506\tProteins\n")
        codes, unknown = h.treenodes_of({"D011506"})
        assert codes == {"D12.776"} and unknown == 0
        assert h.treenodes_of(set()) == (set(), 0)
        assert h.treenodes_of({"X999999"}) == (set(), 1)

    def test_children_closure_matches_nodes(self):
        rng = np.random.default_rng(3)
        h = random_tree(rng)
        roots = [h.codes[i] for i in np.flatnonzero(h.parent < 0)]
        reached = set(roots)
        frontier = list(roots)
        while frontier:
            node = frontier.pop()
            for child in children(h, node):
                assert child in h.nodes
                reached.add(child)
                frontier.append(child)
        assert reached == set(h.nodes)


class TestPositional:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_layout_matches_code_functions(self, seed):
        h = random_tree(np.random.default_rng(seed), max_nodes=80)
        assert list(h.codes) == sorted(h.nodes)
        for i, code in enumerate(h.codes):
            assert h.position[code] == i
            up = parent_of(code)
            assert h.parent[i] == (-1 if up is None else h.codes.index(up))
            assert h.level[i] == level_of(code)
            row = h.closure.indices[h.closure.indptr[i] : h.closure.indptr[i + 1]]
            assert {h.codes[j] for j in row} == {code, *ancestors_of(code)}
        assert set(h.closure.data.tolist()) <= {1}

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_incidence_rows_match_treenodes_of(self, seed):
        rng = np.random.default_rng(seed)
        codes = sorted(random_tree(rng, max_nodes=60).nodes)
        descriptor_map = {
            f"D{i:04d}": {codes[int(k)] for k in rng.integers(len(codes), size=1 + i % 3)}
            for i in range(8)
        }
        h = Hierarchy({c: "" for c in codes}, descriptor_map)
        pool = [*descriptor_map, "X0001", "X0002"]
        annotations = [
            [pool[int(k)] for k in rng.integers(len(pool), size=int(rng.integers(0, 5)))]
            for _ in range(12)
        ]
        marks, unknown = h.incidence(*annotation_matrix(annotations))
        assert marks.shape == (len(annotations), len(h.codes))
        expected_unknown = 0
        for r, descriptors in enumerate(annotations):
            # a 0/1 row lists each id once, as a parsed article does
            mapped, missing = h.treenodes_of(set(descriptors))
            expected_unknown += missing
            row = marks.indices[marks.indptr[r] : marks.indptr[r + 1]]
            assert row.tolist() == sorted(h.position[c] for c in mapped)
            assert marks.data[marks.indptr[r] : marks.indptr[r + 1]].tolist() == [1] * len(row)
        assert unknown == expected_unknown


def mapped_tree(rng, max_nodes=60, descriptors=8):
    """A random tree whose descriptors map to 1-3 codes each, some of them
    codes that only the map names (and their missing ancestors)."""
    codes = sorted(random_tree(rng, max_nodes=max_nodes).nodes)
    new = [c + ("99" if len(c) == 1 else ".999") for c in codes] + ["Z", "Y42.001"]
    pool = codes + new[: int(rng.integers(0, len(new) + 1))]
    descriptor_map = {
        f"D{i:04d}": {pool[int(k)] for k in rng.integers(len(pool), size=1 + i % 3)}
        for i in range(descriptors)
    }
    return Hierarchy({c: "" for c in codes}, descriptor_map)


def incidence_oracle(h, annotations):
    """The membership matrix of each row's mapped nodes, and the count of
    the row ids that no descriptor of `h` names."""
    groups = [set().union(*(h.descriptor_map.get(d, ()) for d in row)) for row in annotations]
    unknown = sum(d not in h.descriptor_map for row in annotations for d in set(row))
    return membership(groups, h.position, len(h.codes))[0], unknown


class TestPattern:
    """`pattern` builds the 0/1 matrices that `membership`, the dict-and-COO
    oracle, gives: the same bytes, dtypes and sortedness."""

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_descriptor_nodes_match_membership(self, seed):
        h = mapped_tree(np.random.default_rng(seed))
        groups = [h.descriptor_map[d] for d in h.descriptors]
        assert_same_csr(h.descriptor_nodes, membership(groups, h.position, len(h.codes))[0])

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_incidence_matches_membership(self, seed):
        rng = np.random.default_rng(seed)
        h = mapped_tree(rng)
        pool = [*h.descriptors, "X0001", "X0002", "D9999"]  # the last three unknown
        annotations = [
            [pool[int(k)] for k in rng.integers(len(pool), size=int(rng.integers(0, 5)))]
            for _ in range(int(rng.integers(0, 15)))
        ]
        marks, unknown = h.incidence(*annotation_matrix(annotations))
        want, want_unknown = incidence_oracle(h, annotations)
        assert_same_csr(marks, want)
        assert unknown == want_unknown

    @pytest.mark.parametrize("annotations", [[], [[], []]])
    def test_empty_vocabulary(self, annotations):
        h = mapped_tree(np.random.default_rng(5))
        marks, unknown = h.incidence(*annotation_matrix(annotations))
        assert_same_csr(marks, incidence_oracle(h, annotations)[0])
        assert unknown == 0

    def test_hierarchy_without_descriptors(self):
        h = Hierarchy({"D12.776": "", "E01": ""}, {})
        assert_same_csr(h.descriptor_nodes, membership([], h.position, len(h.codes))[0])
        annotations = [["D0001"], [], ["D0001", "D0002"]]
        marks, unknown = h.incidence(*annotation_matrix(annotations))
        assert_same_csr(marks, incidence_oracle(h, annotations)[0])
        assert (marks.nnz, unknown) == (0, 3)

    def test_bool_dtype(self):
        m = pattern(np.array([0, 2, 2, 3]), np.array([0, 2, 1]), 3, bool)
        assert m.dtype == bool and m.data.all()
        assert m.toarray().tolist() == [[True, False, True], [False] * 3, [False, True, False]]

    def test_empty_rows(self):
        m = pattern(np.array([0, 0, 1, 1]), np.array([3]), 4)
        assert_same_csr(m, membership([(), (3,), ()], {3: 3}, 4)[0])

    def test_width_zero(self):
        m = pattern(np.zeros(3, dtype=np.int64), np.zeros(0, dtype=np.int64), 0)
        assert_same_csr(m, membership([(), ()], {}, 0)[0])


class TestKeyPattern:
    """`key_pattern` builds the 0/1 matrices with repeats that `coo_pattern`,
    the COO-and-`sum_duplicates` oracle, gives, and calls no `sum_duplicates`."""

    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from([np.int32, bool]))
    @settings(max_examples=50, deadline=None)
    def test_matches_coo(self, seed, dtype):
        rng = np.random.default_rng(seed)
        height, width = (int(k) for k in rng.integers(1, 8, size=2))
        keys = rng.integers(0, height * width, size=int(rng.integers(0, 60)))
        keys = np.append(keys, keys[: int(rng.integers(0, len(keys) + 1))])  # repeats
        rng.shuffle(keys)
        want = coo_pattern(keys // width, keys % width, (height, width), dtype)
        sorted_keys = np.sort(keys)
        got = key_pattern(keys, height, width, dtype)
        assert_same_csr(got, want)
        assert_keyed_layout(got)
        assert keys.tolist() == sorted_keys.tolist()  # sorted in place

    @pytest.mark.parametrize(("height", "width"), [(0, 0), (0, 3), (3, 0)])
    def test_no_cells(self, height, width):
        got = key_pattern(np.zeros(0, dtype=np.int64), height, width)
        none = np.zeros(0, dtype=np.int64)
        assert_same_csr(got, coo_pattern(none, none, (height, width)))

    @pytest.mark.parametrize("seed", range(8))
    def test_closure(self, monkeypatch, seed):
        with monkeypatch.context() as patch:
            forbid_sum_duplicates(patch)
            h = mapped_tree(np.random.default_rng(seed))
        pairs = [(i, h.position[a]) for i, code in enumerate(h.codes)
                 for a in (code, *ancestors_of(code))]
        rows, cols = np.array(pairs, dtype=np.int64).T
        assert_same_csr(h.closure, coo_pattern(rows, cols, (len(h.codes),) * 2))
        assert_keyed_layout(h.closure)


class TestRoundTrip:
    def test_small_example(self):
        h, _ = parse("D12.776\tD011506\tProteins\nC01\tD1\tInfections\n")
        buffer = io.StringIO()
        write_hierarchy(h, buffer)
        h2, autocreated = parse(buffer.getvalue())
        assert h2 == h
        assert autocreated == 0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_trees_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        h = random_tree(rng, max_nodes=60)
        # attach descriptors to random nodes
        codes = sorted(h.nodes)
        descriptor_map = {
            f"D{i:04d}": {codes[int(rng.integers(len(codes)))]} for i in range(5)
        }
        h = Hierarchy({c: f"label {c}" for c in codes}, descriptor_map)
        buffer = io.StringIO()
        write_hierarchy(h, buffer)
        h2, _ = parse(buffer.getvalue())
        assert h2 == h
        buffer2 = io.StringIO()
        write_hierarchy(h2, buffer2)
        assert buffer2.getvalue() == buffer.getvalue()
