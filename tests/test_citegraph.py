import io
from operator import attrgetter

import numpy as np
import pytest

from conftest import (
    id_adjacency,
    pair_arrays,
    parse_citations_oracle,
    random_temporal_graph,
    store_from_articles,
    temporal_store,
    write_citations_oracle,
)
from kosrank.citegraph import (
    GraphError,
    build_graph,
    cumulative_snapshot,
    induced,
    parse_citations,
    sample_nodes,
    write_citations,
)
from kosrank.corpus import Article
from kosrank.graphmetrics import disruption_of
from kosrank.months import month_index


def everyone(g):
    """The candidate mask that lets `sample_nodes` draw from every node."""
    return np.ones(g.num_nodes, dtype=bool)


def two_article_store():
    return store_from_articles([Article(1, "2014-01", ()), Article(2, "2014-02", ())])


class TestBuild:
    def test_basic_edge(self):
        g = build_graph(pair_arrays([(2, 1)]), two_article_store())
        successors, predecessors = id_adjacency(g)
        assert successors[2] == [1]
        assert predecessors[1] == [2]
        assert g.num_edges == 1

    def test_self_loop_dropped(self):
        g = build_graph(pair_arrays([(1, 1)]), two_article_store())
        assert g.num_edges == 0
        assert g.self_loops_dropped == 1

    def test_duplicates_collapse(self):
        g = build_graph(pair_arrays([(2, 1), (2, 1)]), two_article_store())
        assert g.num_edges == 1
        assert g.duplicates_dropped == 1

    def test_unknown_endpoints_dropped(self):
        g = build_graph(pair_arrays([(2, 99), (98, 1)]), two_article_store())
        assert g.num_edges == 0
        assert g.unknown_dropped == 2

    def test_array_input_counts_every_drop(self):
        citing = np.array([2, 2, 1, 1, 2, 99, 2, 1, 99], dtype=np.int64)
        cited = np.array([1, 1, 1, 2, 2, 1, 98, 2, 99], dtype=np.int64)
        g = build_graph((citing, cited), two_article_store())
        assert g.self_loops_dropped == 3  # (1, 1), (2, 2) and the unknown (99, 99)
        assert g.unknown_dropped == 2
        assert g.duplicates_dropped == 2
        assert g.num_edges == 2
        assert id_adjacency(g)[0] == {1: [2], 2: [1]}

    # Dense ids (step 1) span at most 400 values against 2,300 queries, so
    # build_graph looks them up in its table; step-7 ids span at least 834
    # and take the sorted search only when the span exceeds the queries.
    @pytest.mark.parametrize(("step", "searched"), [(1, False), (7, True)])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_set_oracle_on_shuffled_ids(self, monkeypatch, seed, step, searched):
        rng = np.random.default_rng(seed)
        ids = 10**12 + step * np.sort(rng.choice(400, size=120, replace=False))
        store = store_from_articles(Article(int(i), "2014-01", ()) for i in ids)
        limits = np.iinfo(np.int64)
        outside = np.concatenate([
            ids[:5] - 10**12,  # below the smallest id
            ids[-5:] + 10**6,  # above the largest
            ids[:-1] + rng.integers(1, 7, size=len(ids) - 1),  # in a gap
            [ids[0] - 1, ids[-1] + 1, limits.min, limits.max],  # just outside, and the limits
        ])
        pool = np.concatenate([np.repeat(ids, 4), outside])
        citing, cited = rng.choice(pool, size=2000), rng.choice(pool, size=2000)
        repeat = rng.integers(0, 2000, size=300)
        citing, cited = np.append(citing, citing[repeat]), np.append(cited, cited[repeat])
        order = rng.permutation(len(citing))
        citing, cited = citing[order], cited[order]
        assert (ids[-1] - ids[0] + 1 > len(citing)) == searched

        searches, search = [], np.searchsorted

        def counted_search(a, v, *args, **kwargs):
            searches.append(len(v))
            return search(a, v, *args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", counted_search)
        pairs = list(zip(citing.tolist(), cited.tolist()))
        known = set(ids.tolist())
        kept = [(u, v) for u, v in pairs if u != v and u in known and v in known]
        g = build_graph((citing, cited), store)
        assert searches.count(len(citing)) == (2 if searched else 0)
        got_citing, got_cited = g.edge_arrays()
        assert set(zip(got_citing.tolist(), got_cited.tolist())) == set(kept)
        assert g.num_edges == len(set(kept))
        assert g.self_loops_dropped == sum(u == v for u, v in pairs) > 0
        assert g.unknown_dropped == len(pairs) - len(kept) - g.self_loops_dropped > 0
        assert g.duplicates_dropped == len(kept) - len(set(kept)) > 0

    def test_empty_store(self):
        empty = store_from_articles([])
        g = build_graph((np.array([5, 7], dtype=np.int64), np.array([6, 7], dtype=np.int64)), empty)
        assert (g.num_nodes, g.num_edges) == (0, 0)
        assert (g.unknown_dropped, g.self_loops_dropped) == (1, 1)
        assert g.matrix.indptr.tolist() == g.incoming.indptr.tolist() == [0]
        assert cumulative_snapshot(g, empty, "2014-01").num_nodes == 0
        assert sample_nodes(g, np.ones(0, dtype=bool), 0.5, seed=1).num_nodes == 0

    def test_empty_edge_array(self):
        none = np.array([], dtype=np.int64)
        g = build_graph((none, none), two_article_store())
        assert (g.num_nodes, g.num_edges, g.duplicates_dropped) == (2, 0, 0)
        assert g.matrix.indptr.tolist() == g.incoming.indptr.tolist() == [0, 0, 0]
        assert id_adjacency(g)[1][1] == []

    def test_degree_sums_match_edge_count(self):
        rng = np.random.default_rng(11)
        _, g = random_temporal_graph(rng, 200)
        assert int(np.diff(g.matrix.indptr).sum()) == g.num_edges
        assert int(np.diff(g.incoming.indptr).sum()) == g.num_edges

    def test_isolated_node(self):
        g = build_graph(pair_arrays([]), two_article_store())
        successors, predecessors = id_adjacency(g)
        assert successors[1] == []
        assert predecessors[1] == []

    @pytest.mark.parametrize("dtype", [None, np.int64])
    def test_list_pair_and_array_pair_give_the_same_edges(self, dtype):
        store = store_from_articles(Article(i, "2014-01", ()) for i in range(1, 5))
        citing, cited = [2, 3, 4], [1, 1, 1]
        if dtype is not None:
            citing, cited = np.array(citing, dtype=dtype), np.array(cited, dtype=dtype)
        g = build_graph((citing, cited), store)
        got_citing, got_cited = g.edge_arrays()
        assert list(zip(got_citing.tolist(), got_cited.tolist())) == [(2, 1), (3, 1), (4, 1)]
        assert (g.self_loops_dropped, g.unknown_dropped, g.duplicates_dropped) == (0, 0, 0)

    def test_unknown_focal_raises(self):
        g = build_graph(pair_arrays([(2, 1)]), two_article_store())
        with pytest.raises(GraphError, match="^unknown article id 42$"):
            disruption_of(g, 42)


class TestSnapshot:
    def test_induced_subgraph_rule(self):
        store = two_article_store()
        g = build_graph(pair_arrays([(2, 1)]), store)
        s1 = cumulative_snapshot(g, store, "2014-01")
        assert s1.node_ids.tolist() == [1]
        assert s1.num_edges == 0
        s2 = cumulative_snapshot(g, store, "2014-02")
        assert s2.node_ids.tolist() == [1, 2]
        assert s2.num_edges == 1

    def test_monotone_in_month(self):
        rng = np.random.default_rng(5)
        store, g = random_temporal_graph(rng, 120)
        previous_nodes: set[int] = set()
        previous_edges: set[tuple[int, int]] = set()
        for month in [f"2014-{m:02d}" for m in range(1, 7)]:
            snap = cumulative_snapshot(g, store, month)
            nodes = set(snap.node_ids.tolist())
            citing, cited = snap.edge_arrays()
            edges = set(zip(citing.tolist(), cited.tolist()))
            assert previous_nodes <= nodes
            assert previous_edges <= edges
            previous_nodes, previous_edges = nodes, edges


class TestSample:
    def test_fraction_one_is_identity(self):
        store = two_article_store()
        g = build_graph(pair_arrays([(2, 1)]), store)
        s = sample_nodes(g, everyone(g), 1.0, seed=9)
        assert s.node_ids.tolist() == g.node_ids.tolist()
        assert s.num_edges == g.num_edges

    def test_half_of_ten_is_five_and_repeatable(self):
        store = temporal_store(np.random.default_rng(0), 10)
        g = build_graph(pair_arrays([]), store)
        a = sample_nodes(g, everyone(g), 0.5, seed=123)
        b = sample_nodes(g, everyone(g), 0.5, seed=123)
        assert a.num_nodes == 5
        assert a.node_ids.tolist() == b.node_ids.tolist()

    def test_complete_digraph_k4(self):
        store = store_from_articles([Article(i, "2014-01", ()) for i in range(1, 5)])
        edges = [(u, v) for u in range(1, 5) for v in range(1, 5) if u != v]
        g = build_graph(pair_arrays(edges), store)
        assert g.num_edges == 12
        s = sample_nodes(g, everyone(g), 0.5, seed=4)
        assert s.num_nodes == 2
        assert s.num_edges == 2  # both directions between the surviving pair

    def test_fraction_out_of_range(self):
        g = build_graph(pair_arrays([]), two_article_store())
        with pytest.raises(ValueError):
            sample_nodes(g, everyone(g), 0.0, seed=1)
        with pytest.raises(ValueError):
            sample_nodes(g, everyone(g), 1.5, seed=1)

    def test_expected_degree_scaling(self):
        # sampled edge count ~ fraction^2 * |E|, within 20% averaged over seeds
        rng = np.random.default_rng(99)
        store = temporal_store(rng, 10_000)
        citing = rng.integers(1, 10_001, size=50_000)
        cited = rng.integers(1, 10_001, size=50_000)
        keep = citing != cited
        g = build_graph((citing[keep], cited[keep]), store)
        fraction = 0.5
        counts = [sample_nodes(g, everyone(g), fraction, seed=s).num_edges for s in range(10)]
        expected = fraction**2 * g.num_edges
        assert abs(np.mean(counts) - expected) / expected < 0.2


class TestParseCitations:
    def test_round_trippable(self):
        citing, cited = parse_citations(io.StringIO("2\t1\n3\t1\n"))
        assert citing.tolist() == [2, 3]
        assert cited.tolist() == [1, 1]

    def test_malformed_row(self):
        with pytest.raises(GraphError, match="line 1"):
            parse_citations(io.StringIO("2,1\n"))

    @staticmethod
    def outcome(parser, source):
        try:
            citing, cited = parser(source)
        except GraphError as exc:
            return str(exc)
        assert citing.dtype == cited.dtype == np.int64
        return citing.tolist(), cited.tolist()

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\n\n\n",
            "# citing\tcited\n#\n",
            "  \n\t\n",
            "# header\n2\t1\n\n3\t1\n",
            "  2\t1  \n 3\t1\n",
            "\t2\t1\n",
            "2\t1\r\n3\t1\r\n",
            "2\t1\r3\t1\n",
            "2\t1",
            "+2\t-1\n",
            "  # indented comment\n2\t1\n",
            "2\t1\t\n3\t1\n",  # trailing tab: accepted; loadtxt alone rejects it
            "2\t1 # x\n",  # inline comment: rejected; loadtxt with `#` comments accepts it
            "2\t1\n3\t1\t# x\n",
            "2,1\n",
            "2\n",
            "2\t1\t3\n",
            "2\t1\n2\t1\t3\n",
            "2\t\t1\n",
            "2\tx\n",
            "2\t1.0\n",
            "2\t1e3\n",
            "2\t1\n\n# c\n3\tfoo\n",
        ],
    )
    def test_matches_the_line_loop(self, text):
        expected = self.outcome(parse_citations_oracle, io.StringIO(text))
        assert self.outcome(parse_citations, io.StringIO(text)) == expected
        # A file opened in text mode reads "\r" as a line end, as splitlines does.
        lines = text.splitlines(keepends=True)
        universal = io.StringIO(text, newline=None)
        assert self.outcome(parse_citations, universal) == self.outcome(parse_citations_oracle, lines)

    def test_matches_the_line_loop_on_random_rows(self):
        tokens = ["1", "22", "-3", "+4", "007", " ", "\t", "\t", "#", "# x", "x", "1.0", "\r", ""]
        rng = np.random.default_rng(2024)
        for _ in range(500):
            lines = [
                "".join(rng.choice(tokens, size=int(rng.integers(0, 6))))
                + ("\n" if rng.random() < 0.9 else "")
                for _ in range(int(rng.integers(0, 5)))
            ]
            text = "".join(lines)
            expected = self.outcome(parse_citations_oracle, io.StringIO(text))
            assert self.outcome(parse_citations, io.StringIO(text)) == expected, repr(text)

    def test_fallback_rereads_from_where_the_input_started(self):
        text = "# header\n2\t1\n3\t1\n"
        expected = ([2, 3], [1, 1])
        handle = io.StringIO("skipped\n" + text)
        handle.readline()
        assert self.outcome(parse_citations, handle) == expected
        assert self.outcome(parse_citations, io.StringIO(text)) == expected

    def test_int64_ids_parse_at_the_limits(self):
        text = "9223372036854775807\t-9223372036854775808\n"
        citing, cited = parse_citations(io.StringIO(text))
        assert citing.tolist() == [2**63 - 1] and cited.tolist() == [-(2**63)]

    @pytest.mark.parametrize(
        "text", ["1\t2\n2\t99999999999999999999\n", "1\t2\n-9223372036854775809\t1\n"]
    )
    def test_id_beyond_int64_names_its_line(self, text):
        with pytest.raises(OverflowError):
            parse_citations_oracle(io.StringIO(text))
        with pytest.raises(GraphError, match="^line 2: article id outside the int64 range$"):
            parse_citations(io.StringIO(text))


INT64 = np.iinfo(np.int64)


class TestWriteCitations:
    @pytest.mark.parametrize(
        "citing, cited",
        [
            ([], []),
            ([0], [0]),
            ([-1, -20, 3], [5, -600, 0]),
            ([INT64.max, -INT64.max, INT64.min], [INT64.min, INT64.max, -INT64.max]),
            ([1, 22, 333], [4444444, 5, 66]),  # columns of different widths
            # either side of the 9-digit magnitudes that uint32 holds
            ([999_999_999, -999_999_999, 1], [1, 2, 3]),
            ([1_000_000_000, 999_999_999, -1_000_000_000], [2**32, 2**32 - 1, -(2**32)]),
        ],
        ids=["empty", "zero", "negative", "int64-limits", "widths", "9-digits", "10-digits"],
    )
    def test_gives_the_per_row_text_and_parses_back(self, citing, cited):
        citing, cited = (np.array(side, dtype=np.int64) for side in (citing, cited))
        expected, written = io.StringIO(), io.StringIO()
        write_citations_oracle(citing, cited, expected)
        write_citations(citing, cited, written)
        assert written.getvalue() == expected.getvalue()
        written.seek(0)
        again = parse_citations(written)
        assert again[0].tolist() == citing.tolist() and again[1].tolist() == cited.tolist()

    def test_gives_the_per_row_text_of_random_ids(self):
        rng = np.random.default_rng(11)
        # magnitudes of 1 to 18 digits, each with either sign
        scale = 10 ** rng.integers(0, 19, size=(2, 2000)).astype(np.float64)
        sides = (rng.random((2, 2000)) * scale).astype(np.int64) * rng.choice([-1, 1], (2, 2000))
        expected, written = io.StringIO(), io.StringIO()
        write_citations_oracle(*sides, expected)
        write_citations(*sides, written)
        assert written.getvalue() == expected.getvalue()


class TestPositionsAreNotIds:
    """Ids far from 0..n-1 with uneven gaps, so reading a position as an id,
    or an id as a position, cannot go unnoticed."""

    # The ids, then the (indptr, indices) of the matrix and of its CSC form.
    ARRAYS = ("node_ids", "matrix.indptr", "matrix.indices", "incoming.indptr", "incoming.indices")
    arrays = staticmethod(attrgetter(*ARRAYS))
    # What build_graph gives: int64 ids and scipy's int32 indices (under 2**31 entries).
    DTYPES = [np.int64] + [np.int32] * 4

    @staticmethod
    def gapped_graph(rng, n=300, m=1500):
        ids = 10**12 + 7 * np.sort(rng.choice(10 * n, size=n, replace=False))
        months = rng.integers(1, 7, size=n)
        store = store_from_articles(
            Article(int(i), f"2014-{int(mo):02d}", ()) for i, mo in zip(ids, months)
        )
        citing, cited = rng.choice(ids, size=m), rng.choice(ids, size=m)
        edges = {(u, v) for u, v in zip(citing.tolist(), cited.tolist()) if u != v}
        return store, build_graph((citing, cited), store), edges

    @classmethod
    def assert_induced(cls, g, edges, keep):
        keep = sorted(keep)
        kept = set(keep)
        want = {(u, v) for u, v in edges if u in kept and v in kept}
        assert [array.dtype for array in cls.arrays(g)] == cls.DTYPES
        assert g.matrix.dtype == bool
        assert g.node_ids.tolist() == keep
        citing, cited = g.edge_arrays()
        assert len(citing) == len(want)
        assert set(zip(citing.tolist(), cited.tolist())) == want
        predecessors = id_adjacency(g)[1]
        for v in keep:
            assert predecessors[v] == sorted(u for u, w in want if w == v)
        for m in (g.matrix, g.incoming):
            for row in np.split(m.indices, m.indptr[1:-1]):
                assert bool(np.all(np.diff(row) > 0))
        # The CSC form, read back as (citing, cited) position pairs, is the CSR.
        nodes = np.arange(g.num_nodes)
        out_src, out_dst = np.repeat(nodes, np.diff(g.matrix.indptr)), g.matrix.indices
        in_dst, in_src = np.repeat(nodes, np.diff(g.incoming.indptr)), g.incoming.indices
        order = np.lexsort((in_dst, in_src))
        assert np.array_equal(in_src[order], out_src)
        assert np.array_equal(in_dst[order], out_dst)

    @pytest.mark.parametrize(
        "seed, cut",
        [(seed, "month") for seed in range(5)] + [(0, "all"), (1, "all"), (0, "none"), (1, "none")],
        ids=[str(seed) for seed in range(5)] + ["all-0", "all-1", "none-0", "none-1"],
    )
    def test_snapshots_and_samples_keep_exactly_the_induced_edges(self, seed, cut):
        rng = np.random.default_rng(seed)
        store, g, edges = self.gapped_graph(rng)
        self.assert_induced(g, edges, store.ids.tolist())

        if cut == "month":
            month = f"2014-{int(rng.integers(1, 7)):02d}"
            snap = cumulative_snapshot(g, store, month)
            eligible = [a.id for a in store.articles.values()
                        if month_index(a.month) <= month_index(month)]
        else:
            snap = induced(g, np.full(g.num_nodes, cut == "all"))
            eligible = store.ids.tolist() if cut == "all" else []
            # Keeping every node gives the parent array for array; keeping
            # none gives an empty graph whose indptrs are [0].
            want = self.arrays(g) if cut == "all" else [[], [0], [], [0], []]
            for name, got, array in zip(self.ARRAYS, self.arrays(snap), want):
                assert np.array_equal(got, array), name
        self.assert_induced(snap, edges, eligible)

        for parent in (g, snap):
            fraction = float(rng.uniform(0.05, 1.0))
            sample_seed = int(rng.integers(2**32))
            sampled = sample_nodes(parent, everyone(parent), fraction, seed=sample_seed)
            k = int(np.floor(fraction * parent.num_nodes))
            perm = np.random.Generator(np.random.PCG64(sample_seed)).permutation(parent.num_nodes)
            self.assert_induced(sampled, edges, parent.node_ids[perm[:k]].tolist())
        # Drawn from the snapshot's nodes as candidates of the whole graph,
        # the sample is the one drawn from the snapshot itself.
        candidates = np.isin(g.node_ids, snap.node_ids)
        drawn = sample_nodes(g, candidates, fraction, seed=sample_seed)
        for name, got, array in zip(self.ARRAYS, self.arrays(drawn), self.arrays(sampled)):
            assert np.array_equal(got, array), name


class TestSharedCut:
    """A cut that keeps every node shares its parent's arrays, and cuts of it
    are still exact."""

    @pytest.mark.parametrize("seed", range(3))
    def test_full_cuts_share_the_parent_matrix(self, seed):
        rng = np.random.default_rng(seed)
        store, g, edges = TestPositionsAreNotIds.gapped_graph(rng)
        full_cuts = {
            "induced": induced(g, np.ones(g.num_nodes, dtype=bool)),
            "last month": cumulative_snapshot(g, store, store.months()[-1]),
            "sample": sample_nodes(g, everyone(g), 1.0, seed=seed),
        }
        for name, full in full_cuts.items():
            assert full.matrix is g.matrix, name
            assert np.array_equal(full.node_ids, g.node_ids), name
            keep = rng.random(full.num_nodes) < 0.5
            TestPositionsAreNotIds.assert_induced(
                induced(full, keep), edges, full.node_ids[keep].tolist()
            )
            fraction = float(rng.uniform(0.05, 0.95))
            sampled = sample_nodes(full, everyone(full), fraction, seed=seed)
            k = int(np.floor(fraction * full.num_nodes))
            perm = np.random.Generator(np.random.PCG64(seed)).permutation(full.num_nodes)
            TestPositionsAreNotIds.assert_induced(sampled, edges, full.node_ids[perm[:k]].tolist())
        # Nothing above wrote into the shared parent.
        TestPositionsAreNotIds.assert_induced(g, edges, store.ids.tolist())
