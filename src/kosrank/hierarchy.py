"""Concept hierarchy: tree codes, the parsed tree, and descriptor mappings.

Tree codes are dotted hierarchical addresses: a bare category letter ("D"),
a two-digit second level ("D12"), then three-digit segments ("D12.776",
"M01.060.116").  The level of a code is its depth: 1 for a bare letter,
otherwise 2 plus the number of dot separators.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, TextIO

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
    category letters.  Children lists are sorted lexicographically.
    """

    nodes: frozenset[str]
    labels: dict[str, str]
    descriptor_map: dict[str, frozenset[str]]
    children: dict[str, tuple[str, ...]]
    _by_level: dict[int, tuple[str, ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        by_level: dict[int, list[str]] = {}
        for code in self.nodes:
            by_level.setdefault(level_of(code), []).append(code)
        self._by_level = {lvl: tuple(sorted(codes)) for lvl, codes in by_level.items()}

    @property
    def roots(self) -> tuple[str, ...]:
        return self._by_level.get(1, ())

    def levels(self) -> dict[int, tuple[str, ...]]:
        return dict(self._by_level)

    def nodes_at_level(self, level: int) -> set[str]:
        """Nodes whose depth equals `level`; empty set if none."""
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")
        return set(self._by_level.get(level, ()))

    def children_of(self, code: str) -> tuple[str, ...]:
        return self.children.get(code, ())

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

    children: dict[str, list[str]] = {}
    for code in nodes:
        parent = parent_of(code)
        if parent is not None:
            children.setdefault(parent, []).append(code)

    return Hierarchy(
        nodes=frozenset(nodes),
        labels={code: labels.get(code, "") for code in sorted(nodes)},
        descriptor_map={d: frozenset(c) for d, c in sorted(descriptor_map.items())},
        children={p: tuple(sorted(cs)) for p, cs in sorted(children.items())},
    )


@dataclass
class HierarchyParseReport:
    rows: int = 0
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
        report.rows += 1

    report.autocreated_codes = sum(1 for code in labels if code not in listed)
    return build_hierarchy(labels, descriptor_map), report


def write_hierarchy(h: Hierarchy, out: TextIO) -> None:
    """Serialize so that parse(write(h)) == h.

    One listing row per node carries the label; mapping rows follow with
    empty label columns.
    """
    mappings_by_code: dict[str, list[str]] = {}
    for descriptor, codes in h.descriptor_map.items():
        for code in codes:
            mappings_by_code.setdefault(code, []).append(descriptor)
    for code in sorted(h.nodes):
        out.write(f"{code}\t\t{h.labels.get(code, '')}\n")
        for descriptor in sorted(mappings_by_code.get(code, ())):
            out.write(f"{code}\t{descriptor}\t\n")
