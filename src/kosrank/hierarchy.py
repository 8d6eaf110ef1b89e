"""Concept hierarchy: tree codes, the parsed tree, and descriptor mappings.

Tree codes are dotted hierarchical addresses: a bare category letter ("D"),
a two-digit second level ("D12"), then three-digit segments ("D12.776",
"M01.060.116").  The level of a code is its depth: 1 for a bare letter,
otherwise 2 plus the number of dot separators.

A Hierarchy also carries one positional form: node i is `codes[i]` (sorted,
so position order is code order), `parent[i]` its parent's position (-1 at
a root), `level[i]` its depth, `closure` the 0/1 ancestor-or-self matrix and
`descriptor_nodes` the descriptor x node map; `incidence` lays annotations
out as rows on these columns.  Float sums over positions add one term at a
time in ascending order, never by numpy's pairwise reductions, so every
output keeps its bits from run to run.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Collection, Hashable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np
from scipy import sparse

TREE_CODE_RE = re.compile(r"^[A-Z](\d{2}(\.\d{3})*)?$")


class HierarchyError(ValueError):
    """Malformed hierarchy input."""


def is_tree_code(text: str) -> bool:
    return bool(TREE_CODE_RE.match(text))


def level_of(code: str) -> int:
    """Depth of a tree code: "D" -> 1, "D12" -> 2, "D12.776" -> 3."""
    if len(code) == 1:
        return 1
    return 2 + code.count(".")


def parent_of(code: str) -> str | None:
    """Immediate ancestor code, or None for a bare category letter."""
    if len(code) == 1:
        return None
    if "." in code:
        return code.rsplit(".", 1)[0]
    return code[0]


def ancestors_of(code: str) -> Iterator[str]:
    """All proper ancestors, nearest first."""
    parent = parent_of(code)
    while parent is not None:
        yield parent
        parent = parent_of(parent)


@dataclass
class Hierarchy:
    """Immutable concept tree plus descriptor-to-node mappings.

    All ancestors of every node are present, so the only roots are the
    category letters.  The positional fields are derived from the three
    above and take no part in equality.
    """

    nodes: frozenset[str]
    labels: dict[str, str]
    descriptor_map: dict[str, frozenset[str]]
    codes: tuple[str, ...] = field(init=False, repr=False, compare=False)
    position: dict[str, int] = field(init=False, repr=False, compare=False)
    parent: np.ndarray = field(init=False, repr=False, compare=False)
    level: np.ndarray = field(init=False, repr=False, compare=False)
    closure: sparse.csr_matrix = field(init=False, repr=False, compare=False)
    descriptors: tuple[str, ...] = field(init=False, repr=False, compare=False)
    descriptor_nodes: sparse.csr_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.codes = tuple(sorted(self.nodes))
        self.position = {code: i for i, code in enumerate(self.codes)}
        n = len(self.codes)
        self.parent = np.array(
            [self.position.get(parent_of(c), -1) for c in self.codes], dtype=np.int64
        )
        self.level = np.array([level_of(c) for c in self.codes], dtype=np.int64)
        # closure[i, j] = 1 iff node j is node i or one of its ancestors
        lineage = [(c, *ancestors_of(c)) for c in self.codes]
        self.closure, _ = membership(lineage, self.position, n)
        self.descriptors = tuple(sorted(self.descriptor_map))
        self.descriptor_nodes, _ = membership(
            [self.descriptor_map[d] for d in self.descriptors], self.position, n
        )

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

    def incidence(self, annotations: Sequence[Sequence[str]]) -> tuple[sparse.csr_matrix, int]:
        """Binary matrix, one row per descriptor list, marking the mapped nodes.

        Columns are node positions; each row's indices are sorted.  The
        second value counts the descriptor ids that are not in the map.
        """
        row_of = {d: i for i, d in enumerate(self.descriptors)}
        annotated, unknown = membership(annotations, row_of, len(self.descriptors))
        marks = (annotated @ self.descriptor_nodes).tocsr()
        marks.data[:] = 1
        marks.sort_indices()
        return marks, unknown

    def node_vector(self, values: Mapping[str, float]) -> tuple[np.ndarray, np.ndarray]:
        """`values` laid out by node position (0 where absent), and which
        positions were given.  Codes outside the tree are ignored."""
        vector = np.zeros(len(self.codes), dtype=np.float64)
        given = np.zeros(len(self.codes), dtype=bool)
        for code, value in values.items():
            i = self.position.get(code)
            if i is not None:
                vector[i] = value
                given[i] = True
        return vector, given


def membership(
    groups: Sequence[Collection[Hashable]], index: Mapping[Hashable, int], width: int
) -> tuple[sparse.csr_matrix, int]:
    """0/1 CSR matrix whose row r marks column index[k] for each k in groups[r].

    Indices come out sorted and repeats count once.  Keys missing from
    `index` are skipped; the second value counts them.
    """
    cols = np.fromiter(map(index.get, chain.from_iterable(groups), repeat(-1)), dtype=np.int64)
    rows = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    known = cols >= 0
    matrix = sparse.csr_matrix(
        (np.ones(int(known.sum()), dtype=np.int32), (rows[known], cols[known])),
        shape=(len(groups), width),
    )
    matrix.sum_duplicates()
    matrix.data[:] = 1
    return matrix, int(len(cols) - known.sum())


def build_hierarchy(
    labels: dict[str, str], descriptor_map: dict[str, set[str]]
) -> Hierarchy:
    """Assemble a Hierarchy, materializing missing ancestor nodes.

    `labels` keys define the explicitly listed nodes (label may be "").
    Every code referenced by a descriptor must already be a key of `labels`;
    callers decide how unlisted codes are handled before getting here.
    """
    nodes = set(labels)
    for descriptor, codes in descriptor_map.items():
        if not codes:
            raise HierarchyError(f"descriptor {descriptor} maps to no codes")
        nodes.update(codes)
    for code in list(nodes):
        nodes.update(ancestors_of(code))
    return Hierarchy(
        nodes=frozenset(nodes),
        labels={code: labels.get(code, "") for code in sorted(nodes)},
        descriptor_map={d: frozenset(c) for d, c in sorted(descriptor_map.items())},
    )


@dataclass
class HierarchyParseReport:
    autocreated_codes: int = 0  # codes seen only through descriptor rows, no listing


def parse_hierarchy(lines: Iterable[str]) -> tuple[Hierarchy, HierarchyParseReport]:
    """Parse the TSV hierarchy format: `tree_code \\t descriptor_id \\t label`.

    A row with an empty descriptor column just lists a node and its label.
    `#` lines and blank lines are ignored.  Duplicate (code, descriptor)
    pairs are an error; a descriptor pointing at a code that is never
    listed auto-creates the code with an empty label and bumps the
    report's warning counter.
    """
    labels: dict[str, str] = {}
    listed: set[str] = set()
    descriptor_map: dict[str, set[str]] = {}
    seen_pairs: set[tuple[str, str]] = set()
    report = HierarchyParseReport()

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
            if (code, descriptor) in seen_pairs:
                raise HierarchyError(
                    f"line {lineno}: duplicate row for ({code}, {descriptor})"
                )
            seen_pairs.add((code, descriptor))
            descriptor_map.setdefault(descriptor, set()).add(code)
            if label:
                listed.add(code)
        else:
            listed.add(code)

    report.autocreated_codes = sum(1 for code in labels if code not in listed)
    return build_hierarchy(labels, descriptor_map), report


def write_hierarchy(h: Hierarchy, out: TextIO) -> None:
    """Serialize so that parse(write(h)) == h.

    One listing row per node carries the label; mapping rows follow with
    empty label columns.
    """
    by_node = h.descriptor_nodes.T.tocsr()  # node x descriptor, indices sorted
    for i, code in enumerate(h.codes):
        out.write(f"{code}\t\t{h.labels.get(code, '')}\n")
        for row in by_node.indices[by_node.indptr[i] : by_node.indptr[i + 1]]:
            out.write(f"{code}\t{h.descriptors[row]}\t\n")
