"""Article corpus: publication months, descriptor annotations, retraction flags.

Input format is JSON lines, one article per line:
    {"id": 123, "month": "2014-01", "mesh": ["D011506"], "retracted": false}
`mesh` (descriptor id strings) defaults to [] and `retracted` to false;
day-level dates in `month` are truncated to the month.  Parsing builds no
`Article` objects but `ArticleColumns`; `ArticleStore` is the generator's form.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, count, islice, repeat
from operator import itemgetter
from typing import Iterable, Iterator, TextIO

import numpy as np
from scipy import sparse

from .months import month_from_index, month_index, normalize_month


ID_RANGE = range(np.iinfo(np.int64).min, np.iinfo(np.int64).max + 1)  # article ids are int64
# Lines parsed at a time: few enough that a chunk's rows are freed before
# the cyclic collector's full passes walk them.
CHUNK_LINES = 512
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

    def ids_up_to(self, month: str) -> np.ndarray:
        """Sorted ids of articles published in `month` or earlier."""
        cutoff = month_index(normalize_month(month))
        return self.ids[self.month_idx <= cutoff]


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

    Duplicate ids, missing months, an `id` that is not a JSON integer, a
    `retracted` that is not a boolean and a `mesh` entry that is not a
    string are fatal.  Input that breaks a rule is read again from where it
    started, through a line loop that raises a CorpusError naming the line."""
    start = fh.tell()
    try:
        return _columns(fh)
    except (ValueError, TypeError, OverflowError):  # OverflowError: an id beyond int64
        fh.seek(start)
        return _columns(_checked_lines(fh))


def _columns(lines: Iterable[str]) -> ArticleColumns:
    """The columns of the JSON `lines`, decoded and checked a chunk at a time
    so that no row outlives its chunk; a ValueError, TypeError or
    OverflowError, which names no line, where the input breaks a rule."""
    lines, month_of, code_of = iter(lines), {}, {}  # code_of: descriptor id -> its code
    parts = [[()] * 5]  # types the columns of an empty input
    for chunk in iter(lambda: list(islice(lines, CHUNK_LINES)), []):
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
        parts.append((ids, [*map(month_of.get, months)], retracted, [*map(len, meshes)],
                      [*map(code_of.get, descriptors)]))
    ids, month_idx, retracted, sizes, codes = (
        np.concatenate([np.array(part[k], dtype=dtype) for part in parts])
        for k, dtype in enumerate((np.int64, np.int64, bool, np.int64, np.int64)))
    order = np.argsort(ids)
    if (np.diff(ids[order]) == 0).any():
        raise ValueError("a repeated id")
    vocabulary = sorted(code_of)
    rank = np.argsort(np.array([*map(code_of.get, vocabulary)], dtype=np.int64))  # code -> rank
    annotations = sparse.csr_matrix(
        (np.ones(len(codes), dtype=np.int32), (np.repeat(np.arange(len(ids)), sizes), rank[codes])),
        shape=(len(ids), len(vocabulary)))
    annotations.sum_duplicates()  # an id listed twice by one article counts once
    annotations.data[:] = 1
    return ArticleColumns(ids[order], month_idx[order], retracted[order], tuple(vocabulary),
                          annotations[order])


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


def write_articles(store: ArticleStore, out: TextIO) -> None:
    """Serialize one article per line, sorted by id; round-trips through parse."""
    encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps makes one per call
    for article_id in store.ids:
        article = store.articles[int(article_id)]
        row = {
            "id": article.id,
            "month": article.month,
            "mesh": list(article.descriptors),
            "retracted": article.retracted,
        }
        out.write(encode(row) + "\n")
