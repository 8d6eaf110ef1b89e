"""Digest-checked `.npy` mirrors of what a stage parsed or computed.

The mirror at `stem` is one `np.save` file per array, `<stem>.<name>.npy`,
and a JSON record `<stem>.mirror.json`, written last: the digest of the code
that wrote it, the caller's meta, the sha256 of every source file, named by
its role rather than its path, and the sha256 of every array file.  `load`
returns None unless all of them still match (of the sources, those that the
caller read), so a stale mirror, or one from other code, is never used, while
one copied with its sources still matches.
`parse_utf8` reads every input file as UTF-8 text, and `write_file` writes
every stage output to a temporary name, then `os.replace`s it.
"""
from __future__ import annotations

import functools
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np


@functools.cache
def code_digest() -> str:
    """A record's `version`: the sha256 over the name and bytes of each of the
    package's `.py` files, so a parser change makes every earlier mirror stale."""
    return hashlib.sha256(b"".join(
        hashlib.sha256(p.name.encode() + b"\0" + p.read_bytes()).digest()
        for p in sorted(Path(__file__).parent.glob("*.py")))).hexdigest()


def digests(paths: dict[str, str | Path]) -> dict[str, str]:
    """role -> sha256 of the bytes of the file at `paths[role]`."""
    return {role: hashlib.sha256(Path(p).read_bytes()).hexdigest() for role, p in paths.items()}


def parse_utf8(path: Path, parser):
    """`parser` of the file at `path`, open as UTF-8 text; a byte that is not
    UTF-8 is a ValueError that names the path and the byte's line, unless
    `parser` fails on the lines before it, which then gives the error."""
    with path.open(encoding="utf-8") as fh:
        try:
            return parser(fh)
        except UnicodeDecodeError:  # its offset is into a decode buffer
            lines = path.read_bytes().splitlines(keepends=True)  # as a text file counts them
    bad = next(n for n, b in enumerate(lines) if b.decode("utf-8", "ignore").encode() != b)
    parser(io.TextIOWrapper(io.BytesIO(b"".join(lines[:bad])), encoding="utf-8"))
    raise ValueError(f"{path}: line {bad + 1}: not UTF-8")


def write_file(path: Path, *chunks: bytes) -> None:
    """Write `chunks`, in order, to `path` by way of `.<name>.tmp`, which a failed write deletes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:  # gone already after the rename
        tmp.unlink(missing_ok=True)


def save(stem: Path, arrays: dict[str, np.ndarray], sources: dict[str, str], meta: dict) -> None:
    """Write `arrays`, then the record of their digests, `sources` and `meta`."""
    files = {}
    for name, array in arrays.items():
        buf = io.BytesIO()
        np.save(buf, array, allow_pickle=False)
        files[f"{name}.npy"] = buf.getvalue()
    written = {name[:-4]: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    record = {"version": code_digest(), "meta": meta, "sources": sources, "arrays": written}
    files["mirror.json"] = json.dumps(record, sort_keys=True).encode()
    for suffix, data in files.items():  # the record last
        write_file(stem.with_name(f"{stem.name}.{suffix}"), data)


def load(stem: Path, names, sources: dict[str, str], meta: dict) -> dict[str, np.ndarray] | None:
    """The arrays `names`, or None unless the record is readable, lists
    exactly these arrays and `meta`, holds the digest `sources` gives for
    each role it names, and every array file still has its recorded digest.
    The record may name sources that the caller did not read."""
    expected = {"version": code_digest(), "meta": json.loads(json.dumps(meta))}
    try:
        record = json.loads(stem.with_name(f"{stem.name}.mirror.json").read_bytes())
        if ({k: record[k] for k in expected} != expected or set(record["arrays"]) != set(names)
                or {role: record["sources"].get(role) for role in sources} != sources):
            return None
        arrays = {}
        for name, digest in record["arrays"].items():
            data = stem.with_name(f"{stem.name}.{name}.npy").read_bytes()
            if hashlib.sha256(data).hexdigest() != digest:
                return None
            arrays[name] = np.load(io.BytesIO(data), allow_pickle=False)
        return arrays
    except (OSError, ValueError, TypeError, KeyError, AttributeError):
        return None
