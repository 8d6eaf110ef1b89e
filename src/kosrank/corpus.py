"""Article corpus: publication months, descriptor annotations, retraction flags.

Input format is JSON lines, one article per line:
    {"id": 123, "month": "2014-01", "mesh": ["D011506"], "retracted": false}
`mesh` defaults to [] and `retracted` to false; day-level dates in `month`
are truncated to the month.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, TextIO

import numpy as np

from .months import month_from_index, month_index, normalize_month


ID_RANGE = range(np.iinfo(np.int64).min, np.iinfo(np.int64).max + 1)  # article ids are int64


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


def store_from_articles(articles: Iterable[Article]) -> ArticleStore:
    table: dict[int, Article] = {}
    for article in articles:
        if article.id in table:
            raise CorpusError(f"duplicate article id {article.id}")
        table[article.id] = article
    return ArticleStore(articles=table)


def parse_articles(lines: Iterable[str]) -> ArticleStore:
    """Parse JSON-lines articles; duplicate ids, missing months, an `id` that
    is not a JSON integer and a `retracted` that is not a boolean are fatal.

    Each distinct month text is validated once, and every article of that
    month then shares one month string.
    """
    articles: list[Article] = []
    months: dict[str, str] = {}
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
        month = months.get(text)
        if month is None:
            try:
                month = months[text] = normalize_month(text)
            except ValueError as exc:
                raise CorpusError(f"line {lineno}: {exc}") from None
        mesh = row.get("mesh", [])
        if not isinstance(mesh, list):
            raise CorpusError(f"line {lineno}: 'mesh' must be an array")
        descriptors = tuple(sorted({str(d) for d in mesh}))
        retracted = row.get("retracted", False)
        if type(retracted) is not bool:
            raise CorpusError(f"line {lineno}: 'retracted' must be true or false")
        articles.append(
            Article(id=article_id, month=month, descriptors=descriptors, retracted=retracted)
        )
    return store_from_articles(articles)


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
