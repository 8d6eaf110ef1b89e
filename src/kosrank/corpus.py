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
    _ids: np.ndarray = field(init=False, repr=False, compare=False)
    _month_idx: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ids = np.fromiter(self.articles.keys(), dtype=np.int64, count=len(self.articles))
        order = np.argsort(ids)
        self._ids = ids[order]
        self._month_idx = np.fromiter(
            (month_index(self.articles[int(i)].month) for i in self._ids),
            dtype=np.int64,
            count=len(self._ids),
        )

    def __len__(self) -> int:
        return len(self.articles)

    @property
    def ids(self) -> np.ndarray:
        """All article ids, sorted ascending."""
        return self._ids

    def months(self) -> list[str]:
        return [month_from_index(i) for i in np.unique(self._month_idx).tolist()]

    def articles_in_month(self, month: str) -> set[int]:
        return set(self._ids[self._month_idx == month_index(normalize_month(month))].tolist())

    def ids_up_to(self, month: str) -> np.ndarray:
        """Sorted ids of articles published in `month` or earlier."""
        cutoff = month_index(normalize_month(month))
        return self._ids[self._month_idx <= cutoff]

    def retracted_ids(self) -> set[int]:
        return {a.id for a in self.articles.values() if a.retracted}


def store_from_articles(articles: Iterable[Article]) -> ArticleStore:
    table: dict[int, Article] = {}
    for article in articles:
        if article.id in table:
            raise CorpusError(f"duplicate article id {article.id}")
        table[article.id] = article
    return ArticleStore(articles=table)


def parse_articles(lines: Iterable[str]) -> ArticleStore:
    """Parse JSON-lines articles; duplicate ids and missing months are fatal."""
    articles: list[Article] = []
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
        try:
            article_id = int(row["id"])
        except (KeyError, TypeError, ValueError):
            raise CorpusError(f"line {lineno}: missing or invalid 'id'") from None
        if "month" not in row:
            raise CorpusError(f"line {lineno}: missing 'month'")
        try:
            month = normalize_month(str(row["month"]))
        except ValueError as exc:
            raise CorpusError(f"line {lineno}: {exc}") from None
        mesh = row.get("mesh", [])
        if not isinstance(mesh, list):
            raise CorpusError(f"line {lineno}: 'mesh' must be an array")
        descriptors = tuple(sorted({str(d) for d in mesh}))
        retracted = bool(row.get("retracted", False))
        articles.append(
            Article(id=article_id, month=month, descriptors=descriptors, retracted=retracted)
        )
    try:
        return store_from_articles(articles)
    except CorpusError as exc:
        raise CorpusError(str(exc)) from None


def write_articles(store: ArticleStore, out: TextIO) -> None:
    """Serialize one article per line, sorted by id; round-trips through parse."""
    for article_id in store.ids:
        article = store.articles[int(article_id)]
        row = {
            "id": article.id,
            "month": article.month,
            "mesh": list(article.descriptors),
            "retracted": article.retracted,
        }
        out.write(json.dumps(row, sort_keys=True) + "\n")
