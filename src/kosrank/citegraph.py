"""Directed citation graph with cumulative monthly snapshots and seeded sampling.

Edges point citing -> cited.  Adjacency is stored in CSR-style numpy arrays
in both orientations, over node positions (indices into the sorted
`node_ids`) rather than article ids, so the arrays feed scipy.sparse and
the kernels as they are.  The accessors translate back and return ids.
Graphs are immutable once built; snapshot and sample return new graphs,
cut from the parent's boolean adjacency by scipy's row-then-column indexing.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np
from scipy import sparse

from .corpus import ID_RANGE, ArticleStore


class GraphError(ValueError):
    """Malformed edge input or unknown node."""


@dataclass
class CitationGraph:
    node_ids: np.ndarray  # sorted int64 article ids; a node's position indexes this
    out_indptr: np.ndarray
    out_targets: np.ndarray  # positions of cited nodes, sorted within each citing row
    in_indptr: np.ndarray
    in_sources: np.ndarray  # positions of citing nodes, sorted within each cited row
    self_loops_dropped: int = 0
    unknown_dropped: int = 0
    duplicates_dropped: int = 0

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_edges(self) -> int:
        return len(self.out_targets)

    def _position(self, article_id: int) -> int:
        i = int(np.searchsorted(self.node_ids, article_id))
        if i >= len(self.node_ids) or int(self.node_ids[i]) != article_id:
            raise GraphError(f"unknown article id {article_id}")
        return i

    def successors_of(self, article_id: int) -> np.ndarray:
        """Ids of the articles cited by `article_id` (its references), sorted."""
        i = self._position(article_id)
        return self.node_ids[self.out_targets[self.out_indptr[i] : self.out_indptr[i + 1]]]

    def predecessors_of(self, article_id: int) -> np.ndarray:
        """Ids of the articles citing `article_id`, sorted."""
        i = self._position(article_id)
        return self.node_ids[self.in_sources[self.in_indptr[i] : self.in_indptr[i + 1]]]

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(citing, cited) id arrays in citing-major order."""
        citing = np.repeat(self.node_ids, np.diff(self.out_indptr))
        return citing, self.node_ids[self.out_targets]


def _positions(node_ids: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of `ids` in sorted `node_ids`, and which ids are present there.
    Searched in sorted order, each search starts near where the last ended."""
    if len(node_ids) == 0:
        return np.zeros(len(ids), dtype=np.int64), np.zeros(len(ids), dtype=bool)
    order = np.argsort(ids)
    pos = np.empty(len(ids), dtype=np.intp)
    pos[order] = np.minimum(np.searchsorted(node_ids, ids[order]), len(node_ids) - 1)
    return pos, node_ids[pos] == ids


def build_graph(edges: tuple[np.ndarray, np.ndarray], store: ArticleStore) -> CitationGraph:
    """Graph over all store ids from the (citing, cited) id arrays `edges`.

    Self-citations, edges touching ids outside the store, and duplicate
    edges are dropped; each category is counted on the returned graph.
    Rows come out sorted: `sum_duplicates` sorts each to find its repeats.
    """
    citing, cited = (np.asarray(side, dtype=np.int64) for side in edges)
    node_ids = store.ids.copy()
    n = len(node_ids)
    src, src_known = _positions(node_ids, citing)
    dst, dst_known = _positions(node_ids, cited)
    self_loops = citing == cited
    known = src_known & dst_known
    keep = known & ~self_loops
    kept = int(keep.sum())
    out = sparse.csr_matrix((np.ones(kept, dtype=bool), (src[keep], dst[keep])), shape=(n, n))
    out.sum_duplicates()  # a no-op where the constructor already merged them
    into = out.tocsc()  # counting sort: citing positions stay sorted within each column
    return CitationGraph(
        node_ids=node_ids,
        out_indptr=out.indptr,
        out_targets=out.indices,
        in_indptr=into.indptr,
        in_sources=into.indices,
        self_loops_dropped=int(self_loops.sum()),
        unknown_dropped=int((~known & ~self_loops).sum()),
        duplicates_dropped=kept - out.nnz,
    )


def adjacency(indptr: np.ndarray, indices: np.ndarray, n: int) -> sparse.csr_matrix:
    """Boolean n x n matrix from one orientation's CSR; its products OR, so no count wraps."""
    return sparse.csr_matrix((np.ones(len(indices), dtype=bool), indices, indptr), shape=(n, n))


def induced(g: CitationGraph, keep: np.ndarray) -> CitationGraph:
    """Subgraph on the nodes where the boolean mask `keep` is set.

    scipy gathers only the kept rows, then maps their entries to the kept
    columns in row order, and the kept positions ascend, so each row stays
    sorted.  The in-orientation is the counting sort of `build_graph`.
    """
    idx = np.flatnonzero(keep)
    out = adjacency(g.out_indptr, g.out_targets, g.num_nodes)[idx][:, idx]
    into = out.tocsc()
    return CitationGraph(g.node_ids[idx], out.indptr, out.indices, into.indptr, into.indices)


def cumulative_snapshot(g: CitationGraph, store: ArticleStore, month: str) -> CitationGraph:
    """Induced subgraph over articles published in `month` or earlier."""
    keep = np.isin(g.node_ids, store.ids_up_to(month))
    return induced(g, keep)


def sample_nodes(
    g: CitationGraph, candidates: np.ndarray, fraction: float, seed: int
) -> CitationGraph:
    """Keep floor(fraction * n) of the n nodes in the mask `candidates`, drawn
    as from `induced(g, candidates)` but cut at once, and their induced edges.

    Selection is fixed for reproducibility across platforms: sort candidate
    ids, shuffle with PCG64(seed), take the prefix.  fraction 1.0 keeps all.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    pos = np.flatnonzero(candidates)
    k = int(np.floor(fraction * len(pos)))
    rng = np.random.Generator(np.random.PCG64(seed))
    keep = np.zeros(g.num_nodes, dtype=bool)
    keep[pos[rng.permutation(len(pos))[:k]]] = True
    return induced(g, keep)


def parse_citations(fh: TextIO) -> tuple[np.ndarray, np.ndarray]:
    """Parse the `citing \\t cited` TSV in the open, seekable text file `fh`
    into int64 edge arrays.

    Blank lines and lines whose first non-blank character is `#` are
    skipped; every other line holds two tab-separated int64 ids.  Input
    without comments is parsed in C by `np.loadtxt`.  Input that parser
    rejects (any `#`, a wrong column count, text only Python's `int` or
    `str.strip` accept) is read again from where it started, line by line,
    which accepts it or raises a GraphError naming its 1-based line:
    `loadtxt` counts no blank lines in the row number it reports.
    """
    start = fh.tell()
    try:
        with warnings.catch_warnings():
            # Two jobs: an empty input only warns, and older numpy reads
            # "1.0" or "1e3" as an int with a DeprecationWarning.  As errors,
            # both send the input to the line loop, which decides either case.
            warnings.simplefilter("error")
            table = np.loadtxt(fh, dtype=np.int64, delimiter="\t", comments=None, ndmin=2)
        if table.shape[1] == 2:
            return table[:, 0].copy(), table[:, 1].copy()
    except (ValueError, Warning):
        pass
    fh.seek(start)
    return _parse_citation_lines(fh)


def _parse_citation_lines(lines: Iterable[str]) -> tuple[np.ndarray, np.ndarray]:
    citing: list[int] = []
    cited: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'citing\\tcited', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer article id") from None
        if u not in ID_RANGE or v not in ID_RANGE:
            raise GraphError(f"line {lineno}: article id outside the int64 range")
        citing.append(u)
        cited.append(v)
    return np.asarray(citing, dtype=np.int64), np.asarray(cited, dtype=np.int64)


def write_citations(citing: np.ndarray, cited: np.ndarray, out) -> None:
    for u, v in zip(citing.tolist(), cited.tolist()):
        out.write(f"{u}\t{v}\n")
