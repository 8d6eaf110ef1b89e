"""Article corpus: publication months, descriptor annotations, retraction flags.

Input format is JSON lines, one article per line:
    {"id": 123, "month": "2014-01", "mesh": ["D011506"], "retracted": false}
`mesh` (descriptor id strings) defaults to [] and `retracted` to false;
day-level dates in `month` are truncated to the month.  Parsing builds no
`Article` objects but `ArticleColumns`, which `write_articles` writes back
with no per-row format, its ids by `text_rows`, as are the citations and CSVs.
Text in the writer's form is read off its bytes a block at a time, and a
block is kept only if writing what was read gives back its text; any other
block is JSON-decoded.  `hierarchy.key_pattern` builds the annotations.
`ArticleStore`, id-keyed `Article`s with their sorted ids and month indices,
is the form that `synthgen.generate`, an adapter, builds from the columns.
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from itertools import chain, count, islice, repeat
from operator import itemgetter
from typing import Iterable, Iterator, TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import sparse

from .hierarchy import key_pattern, pattern
from .months import month_from_index, month_index, normalize_month


ID_RANGE = range(np.iinfo(np.int64).min, np.iinfo(np.int64).max + 1)  # article ids are int64
# Lines read off their bytes at a time; of a block that this read does not
# take, lines JSON-decoded at a time, few enough that a chunk's rows are
# freed before the cyclic collector's full passes walk them.
BLOCK_LINES, CHUNK_LINES = 8192, 512
# The longest descriptor id that the block read takes: it pads each one in
# a block to the longest, so one long id would cost that much for every id.
WORD_BYTES = 64
_scan = json.JSONDecoder().scan_once
FIELDS = (("id", None), ("month", None), ("mesh", []), ("retracted", False))  # key, default
TYPES = (int, str, list, bool, str)  # of each field, then of each mesh entry


class CorpusError(ValueError):
    """Malformed article input."""


@dataclass(slots=True, frozen=True)
class Article:
    id: int
    month: str
    descriptors: tuple[str, ...]
    retracted: bool = False


@dataclass
class ArticleStore:
    """Immutable id-keyed article collection with a by-month index."""

    articles: dict[int, Article]
    ids: np.ndarray = field(init=False, repr=False, compare=False)  # sorted ascending
    # each id's publication month, as a `months.month_index`
    month_idx: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.articles)
        ids = np.fromiter(self.articles.keys(), dtype=np.int64, count=n)
        months = [article.month for article in self.articles.values()]
        index = {month: month_index(month) for month in set(months)}
        month_idx = np.fromiter(map(index.__getitem__, months), dtype=np.int64, count=n)
        order = np.argsort(ids)
        self.ids = ids[order]
        self.month_idx = month_idx[order]

    def __len__(self) -> int:
        return len(self.articles)

    def months(self) -> list[str]:
        return [month_from_index(i) for i in np.unique(self.month_idx).tolist()]


@dataclass
class ArticleColumns:
    """Parsed articles, row i being the article with the i-th smallest id."""

    ids: np.ndarray  # sorted int64
    month_idx: np.ndarray  # each article's `months.month_index`
    retracted: np.ndarray  # bool
    vocabulary: tuple[str, ...]  # the sorted descriptor ids that any article lists
    annotations: sparse.csr_matrix  # article x vocabulary, 1 where the article lists it


def parse_articles(fh: TextIO) -> ArticleColumns:
    """Parse the JSON-lines articles in the open, seekable text file `fh`.

    Each block of `BLOCK_LINES` lines is read off its bytes, with no line
    decoded as JSON, and kept only if `write_articles` of what was read gives
    back the block's text; any other block is decoded `CHUNK_LINES` lines at
    a time.  Duplicate ids, missing months, an `id` that is not a JSON
    integer, a `retracted` that is not a boolean and a `mesh` entry that is
    not a string are fatal.  Input that breaks a rule is read again from where
    it started, through a line loop that raises a CorpusError naming the line."""
    start = fh.tell()
    try:
        return _columns(fh)
    except (ValueError, TypeError, OverflowError):  # OverflowError: an id beyond int64
        fh.seek(start)
        return _columns(_checked_lines(fh))


def _columns(lines: Iterable[str]) -> ArticleColumns:
    """The columns of the JSON `lines`, read a block at a time so that no row
    outlives its block; a ValueError, TypeError or OverflowError, which names
    no line, where the input breaks a rule."""
    lines, month_of, code_of = iter(lines), {}, {}  # code_of: descriptor id -> its code
    parts = [[()] * 5]  # types the columns of an empty input
    for block in iter(lambda: list(islice(lines, BLOCK_LINES)), []):
        read = _block(block)
        if read is None:
            parts.extend(_chunk(block[k : k + CHUNK_LINES], month_of, code_of)
                         for k in range(0, len(block), CHUNK_LINES))
            continue
        *head, words, local = read
        code_of.update(zip(set(words) - code_of.keys(), count(len(code_of))))
        parts.append((*head, np.array([*map(code_of.get, words)], dtype=np.int64)[local]))
    ids, month_idx, retracted, sizes, codes = (
        np.concatenate([np.asarray(part[k], dtype=dtype) for part in parts])
        for k, dtype in enumerate((np.int64, np.int64, bool, np.int64, np.int64)))
    order = np.argsort(ids)
    if (np.diff(ids[order]) == 0).any():
        raise ValueError("a repeated id")
    vocabulary = sorted(code_of)
    rank = np.argsort(np.array([*map(code_of.get, vocabulary)], dtype=np.int64))  # code -> rank
    rows = np.empty_like(order)
    rows[order] = np.arange(len(ids)) * len(vocabulary)  # each line's row in id order, as a key
    keys = np.repeat(rows, sizes)
    keys += rank[codes]  # an id that one article lists twice repeats its key, kept once
    return ArticleColumns(ids[order], month_idx[order], retracted[order], tuple(vocabulary),
                          key_pattern(keys, len(ids), len(vocabulary)))


def _chunk(chunk: list[str], month_of: dict[str, int], code_of: dict[str, int]) -> tuple:
    """(ids, month indices, retracted flags, descriptor counts, descriptor
    codes) of the JSON lines `chunk`, as lists; `month_of` and `code_of`
    gain the chunk's new month texts and descriptor ids."""
    text = list(filter(None, map(str.strip, chunk)))  # what json.loads reads of a line
    # scan_once raises StopIteration where no value starts, which ends the
    # map early; the check of the ends catches that too.
    decoded = list(map(_scan, text, repeat(0)))
    if list(map(itemgetter(1), decoded)) != list(map(len, text)):
        raise ValueError("not one JSON value per line")
    ids, months, meshes, retracted = columns = [  # dict.get: a TypeError off a dict
        list(map(dict.get, map(itemgetter(0), decoded), repeat(key), repeat(default)))
        for key, default in FIELDS]
    descriptors = list(chain.from_iterable(meshes))
    # exact types: a bool is an int to isinstance
    if any(set(map(type, c)) - {t} for c, t in zip([*columns, descriptors], TYPES)):
        raise ValueError("a field of another type")
    month_of.update((m, month_index(normalize_month(m))) for m in set(months) - month_of.keys())
    code_of.update(zip(set(descriptors) - code_of.keys(), count(len(code_of))))
    return (ids, [*map(month_of.get, months)], retracted, [*map(len, meshes)],
            [*map(code_of.get, descriptors)])


def _block(lines: list[str]) -> tuple | None:
    """(ids, month indices, retracted flags, descriptor counts, the distinct
    descriptor ids, each listed descriptor's index among them) of `lines`, in
    line order, read off their bytes where `write_articles` puts each field:
        {"id": <id>, "mesh": ["<descriptor>", ...], "month": "YYYY-MM", "retracted": <flag>}
    None unless `write_articles` of them gives back the text of `lines`, whose
    JSON decode is then what was read: the one check of the read."""
    text = "".join(lines)
    if not text.isascii():  # else a character is not a byte
        return None
    a = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    ends = np.flatnonzero(a == ord("\n"))
    if len(ends) != len(lines):  # a line that does not end in "\n"
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    quotes = np.flatnonzero(a == ord('"'))
    first = np.searchsorted(quotes, starts)  # the index of each line's first quote
    sizes = np.diff(first, append=len(quotes)) // 2 - 5  # 10 quotes, then 2 a descriptor
    if (sizes < 0).any():
        return None
    byte = lambda at: a[np.clip(at, 0, len(a) - 1)]  # noqa: E731
    # an id: the sign and digits after `{"id": `, up to the `, ` before "mesh"
    negative = byte(starts + 7) == ord("-")
    end = quotes[first + 2] - 2
    width = end - starts - 7 - negative
    if not ((width >= 1) & (width <= 19)).all():  # 19 digits hold every int64 magnitude
        return None
    place = np.arange(-int(width.max()), 0)
    digits = byte(end[:, None] + place)
    digits[place < -width[:, None]] = ord("0")
    magnitude = _decimal(digits)
    ids = np.where(negative, -magnitude, magnitude).view(np.int64)
    # No month index outside 0000-01..9999-12 passes the check: of those
    # that this arithmetic can give, none writes text that gives it again.
    month = quotes[first + 2 * sizes + 6]  # the opening quote of "YYYY-MM"
    month_idx = (12 * _decimal(byte(month[:, None] + np.arange(1, 5)))
                 + _decimal(byte(month[:, None] + np.arange(6, 8))) - 1).view(np.int64)
    retracted = byte(quotes[first + 2 * sizes + 9] + 3) == ord("t")  # after `"retracted": `
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    # descriptor j of a line is between its quotes 4 + 2j and 5 + 2j
    at = np.repeat(first + 4 - 2 * indptr[:-1], sizes) + 2 * np.arange(indptr[-1])
    lengths = quotes[at + 1] - quotes[at] - 1
    longest = max(8, int(lengths.max(initial=0)))
    if longest > WORD_BYTES:
        return None
    # each descriptor's bytes, then zeros up to `longest`
    padded = sliding_window_view(np.concatenate((a, np.zeros(longest, np.uint8))), longest)[
        quotes[at] + 1]
    padded[np.arange(longest) >= lengths[:, None]] = 0
    if longest == 8:  # sorted as big-endian uint64 keys, faster than as strings
        keys, local = np.unique(padded.view(">u8").astype(np.uint64).ravel(), return_inverse=True)
        words = keys.astype(">u8").view("S8")
    else:
        words, local = np.unique(padded.view(f"S{longest}").ravel(), return_inverse=True)
    words = tuple(word.decode("ascii") for word in words.tolist())
    annotations = pattern(indptr, local, len(words))
    out = io.StringIO()
    write_articles(ArticleColumns(ids, month_idx, retracted, words, annotations), out)
    return (ids, month_idx, retracted, sizes, words, local) if out.getvalue() == text else None


def _decimal(digits: np.ndarray) -> np.ndarray:
    """The uint64 value of each row of ASCII digit bytes, most significant first."""
    powers = 10 ** np.arange(digits.shape[1] - 1, -1, -1, dtype=np.uint64)
    return (digits - ord("0")).astype(np.uint64) @ powers


def _checked_lines(lines: Iterable[str]) -> Iterator[str]:
    """Each of the JSON `lines`, or a CorpusError naming the 1-based line of
    the first that breaks a rule.  Each distinct month text is checked once."""
    months: set[str] = set()
    first_line: dict[int, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        if not isinstance(row, dict):
            raise CorpusError(f"line {lineno}: expected a JSON object")
        article_id = row.get("id")
        if type(article_id) is not int:  # a bool is an int to isinstance
            raise CorpusError(f"line {lineno}: missing or non-integer 'id'")
        if article_id not in ID_RANGE:
            raise CorpusError(f"line {lineno}: 'id' outside the int64 range")
        first = first_line.setdefault(article_id, lineno)
        if first != lineno:
            raise CorpusError(f"line {lineno}: duplicate id {article_id}, first on line {first}")
        if "month" not in row:
            raise CorpusError(f"line {lineno}: missing 'month'")
        text = str(row["month"])
        if text not in months:
            try:
                normalize_month(text)
            except ValueError as exc:
                raise CorpusError(f"line {lineno}: {exc}") from None
            months.add(text)
        mesh = row.get("mesh", [])
        if not isinstance(mesh, list):
            raise CorpusError(f"line {lineno}: 'mesh' must be an array")
        if not all(type(d) is str for d in mesh):
            raise CorpusError(f"line {lineno}: 'mesh' entries must be strings")
        if type(row.get("retracted", False)) is not bool:
            raise CorpusError(f"line {lineno}: 'retracted' must be true or false")
        yield line


def text_rows(*parts: bytes | np.ndarray) -> bytes:
    """The ASCII text of rows that each join `parts`: a bytes part as it is, an
    `S` array part as the row's entry, an integer array part as the row's entry
    in decimal.  The parts lie side by side in one 0-padded uint8 matrix, a row
    per text row; the text is its bytes in row order but the 0s, which no part holds."""
    n = next(len(p) for p in parts if not isinstance(p, bytes))
    blocks = []  # each part's bytes (a bytes part's one row for all), or its signs and magnitudes
    for part in parts:
        if isinstance(part, bytes) or part.dtype.kind == "S":
            entries = np.ascontiguousarray([part] if isinstance(part, bytes) else part)
            blocks.append(entries.view(np.uint8).reshape(-1, entries.itemsize))
        else:
            ints = np.asarray(part, dtype=np.int64)
            mag = np.where(ints < 0, -ints.view(np.uint64), ints.view(np.uint64))  # |-2**63| fits
            digits = len(str(mag.max())) if n else 1
            # divmod runs faster in uint32, which holds every 9-digit magnitude
            blocks.append((ints < 0, mag.astype(np.uint32) if digits <= 9 else mag, 1 + digits))
    ends = np.cumsum([b.shape[1] if isinstance(b, np.ndarray) else b[2] for b in blocks]).tolist()
    text = np.zeros((n, ends[-1]), dtype=np.uint8)
    for block, end in zip(blocks, ends):
        if isinstance(block, np.ndarray):
            text[:, end - block.shape[1] : end] = block
            continue
        negative, mag, width = block
        text[:, end - width] = negative * ord("-")
        live = True  # the last place holds a digit, a place above it one while any is left
        for r in range(end - 1, end - width, -1):
            mag, digit = np.divmod(mag, 10)
            text[:, r] = (digit + ord("0")) * live
            live = mag > 0
    return text[text != 0].tobytes()  # in row order


def write_articles(columns: ArticleColumns, out: TextIO) -> None:
    """Write one JSON line per article, in id order, with the text that
    `json.JSONEncoder(sort_keys=True)` gives each row; round-trips through
    parse.  The text is one join of an array of pieces: each article's head,
    its descriptors from a table of their encodings, with `, ` after all but
    the last, and a tail from a (month x retracted) table."""
    encode = json.JSONEncoder(sort_keys=True).encode
    m, n = columns.annotations, len(columns.ids)
    sizes = np.diff(m.indptr)
    words = [*map(encode, columns.vocabulary)]
    table = np.array([word + ", " for word in words] + words, dtype=object)  # with ", ", without
    months, month_of = np.unique(columns.month_idx, return_inverse=True)
    tails = np.array([f'], "month": {encode(month_from_index(k))}, "retracted": {flag}}}\n'
                      for k in months.tolist() for flag in ("false", "true")], dtype=object)
    row = np.repeat(np.arange(n), sizes)  # each descriptor's article
    last = np.diff(row, append=n) > 0  # an article's last descriptor, which has no ", "
    heads = m.indptr[:-1] + 2 * np.arange(n)  # piece k of article i is at heads[i] + k
    pieces = np.empty(m.nnz + 2 * n, dtype=object)
    pieces[heads] = text_rows(b'{"id": ', columns.ids, b', "mesh": [\n').decode().splitlines()
    pieces[np.arange(m.nnz) + 2 * row + 1] = table[m.indices + len(words) * last]
    pieces[heads + sizes + 1] = tails[2 * month_of + columns.retracted]
    out.write("".join(pieces.tolist()))
