"""Checks on a chain workload's generated inputs and pipeline outputs.

Written against the files only, without importing kosrank, so that a change
inside the package cannot change what counts as correct.
"""
from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

ASPECTS = ("influence", "disruptiveness", "informativeness", "usefulness")
# Header lines that carry a config or stage hash: these change when the hash
# scheme changes while the results stay the same, so the digest skips them.
HASH_LINE = re.compile(r"^\s*(#|<!--)\s*[\w-]*hash\s*=")
GENERATED = re.compile(
    r"generated (\d+) articles, (\d+) edges, (\d+) hierarchy nodes, (\d+) change records"
)


def output_files(out: Path, months: list[str]) -> list[Path]:
    """Every result file of the chain, in a fixed order; manifest.json excluded."""
    files = [out / "scores" / f"{a}_{m}.csv" for m in months for a in ASPECTS]
    files += [out / "members" / f"{m}.csv" for m in months]
    files += [out / name for name in (
        "rankings.csv", "trends.csv", "tables.csv", "evolution_tests.json",
        "retraction_tests.json", "correlation_pearson.csv", "correlation_spearman.csv",
    )]
    files += sorted((out / "plots").glob("*.svg"))
    return files


def _drop_hash_keys(value):
    if isinstance(value, dict):
        return {k: _drop_hash_keys(v) for k, v in value.items() if not k.endswith("hash")}
    if isinstance(value, list):
        return [_drop_hash_keys(v) for v in value]
    return value


def normalized(path: Path) -> bytes:
    text = path.read_text()
    if path.suffix == ".json":
        return json.dumps(_drop_hash_keys(json.loads(text)), sort_keys=True).encode()
    return "".join(
        line for line in text.splitlines(keepends=True) if not HASH_LINE.match(line)
    ).encode()


def output_digest(out: Path, months: list[str]) -> str:
    """sha256 over the result files with their hash headers removed."""
    digest = hashlib.sha256()
    for path in output_files(out, months):
        digest.update(str(path.relative_to(out)).encode() + b"\0")
        digest.update(normalized(path) + b"\0")
    return digest.hexdigest()


def _csv_rows(path: Path) -> list[list[str]]:
    lines = [line for line in path.read_text().splitlines() if line and not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


def output_invariants(out: Path, months: list[str]) -> list[str]:
    """Properties every seed's outputs have; returns one message per broken one."""
    problems = []
    missing = [p for p in output_files(out, months) if not p.exists()]
    score_files = [out / "scores" / f"{a}_{m}.csv" for m in months for a in ASPECTS]
    if any(p in missing for p in score_files):
        problems.append("fewer than 4 score files for some month")

    ranks: dict[tuple[str, str], list[int]] = {}
    for month, scope, _, _, rank in _csv_rows(out / "rankings.csv"):
        ranks.setdefault((month, scope), []).append(int(rank))
    if {m for m, _ in ranks} != set(months) or any(
        sorted(r) != list(range(1, len(r) + 1)) for r in ranks.values()
    ):
        problems.append("ranks are not a 1..N permutation for every (month, scope)")

    p_values = [
        row["p"]
        for name in ("evolution_tests.json", "retraction_tests.json")
        for row in json.loads((out / name).read_text())["results"]
        if row["status"] == "ok"
    ]
    if not p_values or not all(0.0 <= p <= 1.0 for p in p_values):
        problems.append("p-values missing or outside [0, 1]")

    for method in ("pearson", "spearman"):
        rows = _csv_rows(out / f"correlation_{method}.csv")
        if not rows or any(abs(float(row[i + 1]) - 1.0) > 1e-9 for i, row in enumerate(rows)):
            problems.append(f"{method} correlation diagonal is not 1")
    return problems


def parse_generated(stdout: str) -> dict[str, int] | None:
    """Input counts from the `kosrank generate` report line."""
    match = GENERATED.search(stdout)
    if not match:
        return None
    return dict(zip(("articles", "edges", "nodes", "changes"), map(int, match.groups())))


def input_problems(counts: dict | None, expected: dict, recorded: dict | None) -> list[str]:
    """Compare generated counts with the workload's fixed counts and the seed's record."""
    if counts is None:
        return ["generator reported no input counts"]
    want = dict(expected)
    if recorded:
        want["edges"] = recorded["edges"]
    elif counts["edges"] <= 0:
        return ["generated no edges"]
    return [f"{key}: {counts[key]} != {value}" for key, value in want.items()
            if counts[key] != value]
