"""Concept hierarchy: tree codes, the parsed tree, and descriptor mappings.

Tree codes are dotted hierarchical addresses: a bare category letter ("D"),
a two-digit second level ("D12"), then three-digit segments ("D12.776",
"M01.060.116").  The level of a code is its depth: 1 for a bare letter,
otherwise 2 plus the number of dot separators, which is the number of
codes on its path from the root, itself included.

`Hierarchy(labels, descriptor_map)` is the only way to build a tree; it adds
the missing ancestors.  A Hierarchy also carries one positional form: node
i is `codes[i]` (sorted, so position order is code order), `parent[i]` its
parent's position (-1 at a root), `closure` the 0/1 ancestor-or-self matrix,
`level[i]` the length of closure row i, and `descriptor_nodes` the
descriptor x node map; `incidence` lays an article x descriptor vocabulary
matrix out as rows on these columns.  `pattern` builds every 0/1 matrix kept
as a stored pattern, `descriptor_nodes` included, and `key_pattern` every one
whose entries may repeat, `closure` included.  Float sums over positions add
one term at a time in ascending order, never by numpy's pairwise reductions,
so every output keeps its bits from run to run.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterable, Sequence, TextIO

import numpy as np
from scipy import sparse

TREE_CODE_RE = re.compile(r"[A-Z]([0-9]{2}(\.[0-9]{3})*)?")


class HierarchyError(ValueError):
    """Malformed hierarchy input."""


def is_tree_code(text: str) -> bool:
    return bool(TREE_CODE_RE.fullmatch(text))


def parent_of(code: str) -> str | None:
    """Immediate ancestor code, or None for a bare category letter."""
    if len(code) == 1:
        return None
    if "." in code:
        return code.rsplit(".", 1)[0]
    return code[0]


@dataclass
class Hierarchy:
    """Immutable concept tree plus descriptor-to-node mappings.

    `Hierarchy(labels, descriptor_map)` is the only constructor.  It adds
    every missing ancestor of a code in `labels` or in a descriptor's code
    set with the label "", so the only roots are the category letters.
    Equality compares `labels` and `descriptor_map`; every other field is
    derived from them.
    """

    labels: dict[str, str]
    descriptor_map: dict[str, frozenset[str]]  # given as any collections of codes
    nodes: frozenset[str] = field(init=False, repr=False, compare=False)
    codes: tuple[str, ...] = field(init=False, repr=False, compare=False)
    position: dict[str, int] = field(init=False, repr=False, compare=False)
    parent: np.ndarray = field(init=False, repr=False, compare=False)
    level: np.ndarray = field(init=False, repr=False, compare=False)
    closure: sparse.csr_matrix = field(init=False, repr=False, compare=False)
    descriptors: tuple[str, ...] = field(init=False, repr=False, compare=False)
    descriptor_nodes: sparse.csr_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for descriptor, mapped in self.descriptor_map.items():
            if not mapped:
                raise HierarchyError(f"descriptor {descriptor} maps to no codes")
        # Close the node set one level up per pass: up[code] is its parent code.
        up: dict[str, str | None] = {}
        new = set(self.labels).union(*self.descriptor_map.values())
        while new:
            up.update((code, parent_of(code)) for code in new)
            new = {up[code] for code in new} - up.keys() - {None}
        self.codes = tuple(sorted(up))
        self.nodes = frozenset(up)
        self.labels = {code: self.labels.get(code, "") for code in self.codes}
        self.descriptor_map = {d: frozenset(c) for d, c in sorted(self.descriptor_map.items())}
        self.position = {code: i for i, code in enumerate(self.codes)}
        n = len(self.codes)
        self.parent = np.array([self.position.get(up[c], -1) for c in self.codes], dtype=np.int64)
        # closure[i, j] = 1 iff node j is node i or one of its ancestors:
        # pass k pairs each node with its k-th ancestor.
        rows = ancestors = np.arange(n)
        keys = [rows * n + ancestors]
        while len(rows):
            above = self.parent[ancestors]
            rows, ancestors = rows[above >= 0], above[above >= 0]
            keys.append(rows * n + ancestors)
        self.closure = key_pattern(np.concatenate(keys), n, n)
        self.level = np.diff(self.closure.indptr)  # the length of the ancestor-or-self row
        self.descriptors, groups = tuple(self.descriptor_map), self.descriptor_map.values()
        nodes = np.fromiter(map(self.position.get, chain.from_iterable(groups)), dtype=np.int64)
        self.descriptor_nodes = pattern(np.cumsum([0, *map(len, groups)]), nodes, n)
        self.descriptor_nodes.sort_indices()

    def treenodes_of(self, descriptors: Iterable[str]) -> tuple[set[str], int]:
        """Union of the tree codes mapped by the given descriptor ids.

        Unknown descriptor ids are tolerated: they contribute nothing and
        are tallied in the returned count.
        """
        codes: set[str] = set()
        unknown = 0
        for descriptor in descriptors:
            mapped = self.descriptor_map.get(descriptor)
            if mapped is None:
                unknown += 1
            else:
                codes.update(mapped)
        return codes, unknown

    def incidence(
        self, vocabulary: Sequence[str], annotations: sparse.csr_matrix
    ) -> tuple[sparse.csr_matrix, int]:
        """Binary matrix marking, for each row of the 0/1 row x `vocabulary`
        matrix `annotations`, the nodes its descriptor ids map to (columns are
        node positions, each row sorted), and the count of unmapped marks."""
        row_of = {d: i for i, d in enumerate(self.descriptors)}
        rows = np.fromiter(map(row_of.get, vocabulary, repeat(-1)), dtype=np.int64)
        indptr = np.concatenate(([0], np.cumsum(rows >= 0)))  # one entry per known id
        known = pattern(indptr, rows[rows >= 0], len(self.descriptors))
        annotated = annotations @ known  # one mark per known id: vocabulary ids are distinct
        marks = (annotated @ self.descriptor_nodes).tocsr()
        marks.data[:] = 1
        marks.sort_indices()
        return marks, annotations.nnz - annotated.nnz


def pattern(indptr: np.ndarray, indices: np.ndarray, width: int, dtype=np.int32):
    """The 0/1 CSR matrix of `width` columns whose row r marks the sorted,
    distinct columns `indices[indptr[r]:indptr[r + 1]]`."""
    return sparse.csr_matrix((np.ones(len(indices), dtype), indices, indptr),
                             shape=(len(indptr) - 1, width))


def key_pattern(keys: np.ndarray, height: int, width: int, dtype=np.int32):
    """The 0/1 CSR matrix of `height` x `width` marking (k // width, k % width)
    for each distinct k of the int64 array `keys`, which it sorts in place; each
    k is in [0, height * width), which must fit in int64."""
    keys.sort()  # row-major: repeats are adjacent, and each row's columns ascend
    keys = np.delete(keys, np.flatnonzero(keys[1:] == keys[:-1]) + 1)  # each repeat
    indptr = np.searchsorted(keys, np.arange(height + 1) * width)
    return pattern(indptr, np.remainder(keys, width, out=keys), width, dtype)


def parse_hierarchy(lines: Iterable[str]) -> tuple[Hierarchy, int]:
    """Parse the TSV hierarchy format: `tree_code \\t descriptor_id \\t label`.

    A row with an empty descriptor column just lists a node and its label.
    `#` lines and blank lines are ignored.  Duplicate (code, descriptor)
    pairs are an error; a descriptor pointing at a code that is never
    listed auto-creates the code with an empty label.  The second value
    counts those auto-created codes.
    """
    labels: dict[str, str] = {}
    listed: set[str] = set()
    descriptor_map: dict[str, set[str]] = {}

    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        code = parts[0].strip()
        descriptor = parts[1].strip() if len(parts) > 1 else ""
        label = parts[2].strip() if len(parts) > 2 else ""
        if not is_tree_code(code):
            raise HierarchyError(f"line {lineno}: malformed tree code {code!r}")
        if label and not labels.get(code):
            labels[code] = label
        labels.setdefault(code, "")
        if descriptor:
            mapped = descriptor_map.setdefault(descriptor, set())
            if code in mapped:
                raise HierarchyError(f"line {lineno}: duplicate row for ({code}, {descriptor})")
            mapped.add(code)
            if label:
                listed.add(code)
        else:
            listed.add(code)

    return Hierarchy(labels, descriptor_map), len(labels.keys() - listed)


def write_hierarchy(h: Hierarchy, out: TextIO) -> None:
    """Serialize so that parse(write(h)) == h.

    One listing row per node carries the label; mapping rows follow with
    empty label columns.
    """
    by_node = h.descriptor_nodes.T.tocsr()  # node x descriptor, indices sorted
    for i, code in enumerate(h.codes):
        out.write(f"{code}\t\t{h.labels[code]}\n")
        for row in by_node.indices[by_node.indptr[i] : by_node.indptr[i + 1]]:
            out.write(f"{code}\t{h.descriptors[row]}\t\n")
