"""Deterministic synthetic corpus/graph/hierarchy generator.

Produces desk-scale datasets with the shape the pipeline expects: a
category forest in which a tenth of the descriptors map to a second node,
descriptor usage weighted rank ** -0.5 (Zipf), citations that only point
to earlier months (preferential attachment on in-degree), planted
"evolving" descriptors drawn 2.5 times as often, and retracted articles
that draw the most popular tenth of the descriptors 10 times as often.
Module constants fix those figures.  `generate_columns` gives the articles
as the `ArticleColumns` that parsing their text gives, built from one sorted
(article, descriptor text rank) key per draw, not from a loop over the
articles; `generate` adapts them to an `ArticleStore`.
"""
from __future__ import annotations

import gc
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .corpus import Article, ArticleColumns, ArticleStore
from .evaluate import CHANGE_TYPES, ChangeRecord
from .hierarchy import Hierarchy, pattern
from .months import month_from_index, month_index, normalize_month, year_of

_CATEGORY_LETTERS = "ABCDEFGHIJKLMNOP"  # at most 16 level-1 categories
POLYHIERARCHY_FRACTION, ZIPF_EXPONENT, EVOLVING_BOOST = 0.10, 0.5, 2.5
RETRACTION_BIAS_FRACTION, RETRACTION_BIAS_BOOST = 0.10, 10.0
# numpy's Poisson sampler refuses a mean above this
_POISSON_MEAN_LIMIT = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)


class InfeasibleConfigError(ValueError):
    pass


@dataclass
class ScenarioConfig:
    seed: int = 42
    months: int = 24
    articles_per_month: int = 5000
    first_month: str = "2014-01"
    # level-1 category count, then children per node for each deeper level
    hierarchy_branching: tuple[int, ...] = (16, 9, 5, 3)
    descriptors_per_article_mean: float = 4.0
    pa_exponent: float = 1.0
    refs_mean: float = 5.0
    evolving_fraction: float = 0.01
    retraction_rate: float = 0.005

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise InfeasibleConfigError(f"seed must be >= 0, got {self.seed}")
        if self.months < 1 or self.articles_per_month < 1:
            raise InfeasibleConfigError("need at least one month and one article")
        if not self.hierarchy_branching or any(b < 1 for b in self.hierarchy_branching):
            raise InfeasibleConfigError("branching factors must be >= 1")
        if self.hierarchy_branching[0] > len(_CATEGORY_LETTERS):
            raise InfeasibleConfigError("at most 16 level-1 categories")
        if len(self.hierarchy_branching) > 1 and self.hierarchy_branching[1] > 99:
            raise InfeasibleConfigError("level-2 fan-out limited to 99 by the code grammar")
        if any(b > 999 for b in self.hierarchy_branching[2:]):
            raise InfeasibleConfigError("fan-out below level 2 limited to 999")
        for name in ("evolving_fraction", "retraction_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InfeasibleConfigError(f"{name} must be in [0, 1], got {value}")
        try:
            self.first_month = normalize_month(self.first_month)
        except ValueError as exc:
            raise InfeasibleConfigError(f"first_month: {exc}") from None
        if month_index(self.first_month) + self.months - 1 > month_index("9999-12"):
            raise InfeasibleConfigError(f"months: {self.months} from {self.first_month} pass 9999")
        for name in ("descriptors_per_article_mean", "refs_mean", "pa_exponent"):
            value = getattr(self, name)
            top = _POISSON_MEAN_LIMIT if name.endswith("_mean") else math.inf
            if not 0.0 <= value < top:
                raise InfeasibleConfigError(f"{name} must be >= 0 and below {top:g}, got {value}")


def _tree_codes(branching: tuple[int, ...]) -> list[str]:
    codes = list(_CATEGORY_LETTERS[: branching[0]])
    frontier = list(codes)
    for depth, fan in enumerate(branching[1:], start=2):
        next_frontier: list[str] = []
        for parent in frontier:
            for i in range(1, fan + 1):
                code = f"{parent}{i:02d}" if depth == 2 else f"{parent}.{i:03d}"
                next_frontier.append(code)
        codes.extend(next_frontier)
        frontier = next_frontier
    return codes


def _weighted_draws(rng, cdf: np.ndarray, count: int) -> np.ndarray:
    """Indices drawn with the weights whose running sum is `cdf`.  The draws
    are searched in sorted order, so each search starts near the last one."""
    if not np.isfinite(cdf[-1]):  # r would be inf or nan, and its index out of range
        raise InfeasibleConfigError(f"draw weights sum to {cdf[-1]}: an exponent is too large")
    r = rng.random(count) * cdf[-1]
    order = np.argsort(r)
    draws = np.empty(count, dtype=np.intp)
    draws[order] = np.searchsorted(cdf, r[order], side="right")
    return draws


def generate_columns(
    cfg: ScenarioConfig,
) -> tuple[Hierarchy, ArticleColumns, tuple[np.ndarray, np.ndarray], list[ChangeRecord]]:
    """Build (hierarchy, articles, (citing, cited), change records) from `cfg`,
    the articles as the columns that `parse_articles` gives for the file
    `write_articles` writes of them.

    Fully deterministic for a given config; article ids are assigned in
    publication order so citations always point at smaller ids.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    codes = _tree_codes(cfg.hierarchy_branching)
    n_desc = len(codes)
    descriptor_ids = [f"D{i + 1:06d}" for i in range(n_desc)]

    descriptor_map: dict[str, set[str]] = {}
    poly = rng.random(n_desc) < POLYHIERARCHY_FRACTION
    extra = rng.integers(0, n_desc, size=n_desc)
    for i, descriptor in enumerate(descriptor_ids):
        mapped = {codes[i]}
        if poly[i] and int(extra[i]) != i:
            mapped.add(codes[int(extra[i])])
        descriptor_map[descriptor] = mapped
    labels = {code: f"node {code}" for code in codes}
    hierarchy = Hierarchy(labels, descriptor_map)

    # Zipf popularity on a shuffled rank assignment, then planted boosts.
    rank_of = rng.permutation(n_desc)
    base_weights = 1.0 / (rank_of + 1.0) ** ZIPF_EXPONENT
    n_evolving = int(round(cfg.evolving_fraction * n_desc))
    evolving_idx = np.sort(rng.choice(n_desc, size=n_evolving, replace=False))
    weights = base_weights.copy()
    weights[evolving_idx] *= EVOLVING_BOOST

    n_risky = int(round(RETRACTION_BIAS_FRACTION * n_desc))
    risky_idx = np.argsort(-base_weights, kind="stable")[:n_risky]
    biased_weights = weights.copy()
    biased_weights[risky_idx] *= RETRACTION_BIAS_BOOST

    cdf = np.cumsum(weights)
    biased_cdf = np.cumsum(biased_weights)

    total = cfg.months * cfg.articles_per_month
    retracted = rng.random(total) < cfg.retraction_rate
    desc_counts = rng.poisson(cfg.descriptors_per_article_mean, total)

    # Each draw's article, in article order: the normal draws fill the slots
    # of the articles that are not retracted, the biased draws the others'.
    owner = np.repeat(np.arange(total, dtype=np.int64), desc_counts)
    biased = retracted[owner]
    draws = np.empty(len(owner), dtype=np.intp)
    draws[~biased] = _weighted_draws(rng, cdf, int(desc_counts[~retracted].sum()))
    draws[biased] = _weighted_draws(rng, biased_cdf, int(desc_counts[retracted].sum()))

    # One (article, descriptor text rank) key per draw; sorted and with the
    # repeats dropped, each article's descriptors are a run in string order,
    # which is the vocabulary's: the descriptors drawn at all, in text rank.
    by_text = np.argsort(descriptor_ids)
    text_rank = np.empty(n_desc, dtype=np.int64)
    text_rank[by_text] = np.arange(n_desc)
    key = np.sort(owner * n_desc + text_rank[draws])
    key = key[np.diff(key, prepend=-1) != 0]  # keys are >= 0
    drawn = np.bincount(key % n_desc, minlength=n_desc) > 0  # by text rank
    vocabulary = tuple(np.array(descriptor_ids)[by_text][drawn].tolist())
    column_of = np.cumsum(drawn) - 1  # a drawn text rank -> its vocabulary column
    indptr = np.searchsorted(key, np.arange(total + 1, dtype=np.int64) * n_desc)
    annotations = pattern(indptr, column_of[key % n_desc], len(vocabulary))
    first = month_index(cfg.first_month)
    columns = ArticleColumns(
        ids=np.arange(1, total + 1, dtype=np.int64),
        month_idx=np.repeat(np.arange(first, first + cfg.months, dtype=np.int64),
                            cfg.articles_per_month),
        retracted=retracted, vocabulary=vocabulary, annotations=annotations)
    del owner, biased, draws, key  # freed before the edge arrays are built

    citing_parts: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    cited_parts: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    indegree = np.zeros(total, dtype=np.float64)
    for mi in range(1, cfg.months):  # the first month has nothing to cite
        pool = mi * cfg.articles_per_month
        refs = np.minimum(rng.poisson(cfg.refs_mean, cfg.articles_per_month), pool)
        total_refs = int(refs.sum())
        if total_refs == 0:
            continue
        with np.errstate(over="ignore"):  # an overflow fails _weighted_draws' check
            pa_cdf = np.cumsum((indegree[:pool] + 1.0) ** cfg.pa_exponent)
        targets = _weighted_draws(rng, pa_cdf, total_refs)
        sources = np.repeat(
            np.arange(pool + 1, pool + cfg.articles_per_month + 1, dtype=np.int64), refs
        )
        citing_parts.append(sources)
        cited_parts.append(targets.astype(np.int64) + 1)
        indegree[:pool] += np.bincount(targets, minlength=pool)

    # One int64 key per edge (cited <= total); sorted, it is citing-major order.
    # Not np.unique: on 5.3M keys (numpy 2.4) it took 5-7 s against 0.2 s for sort + diff.
    key = np.sort(np.concatenate(citing_parts) * (total + 1) + np.concatenate(cited_parts))
    unique = key[np.diff(key, prepend=-1) != 0]  # keys are >= 0
    edges = (unique // (total + 1), unique % (total + 1))

    release = f"{year_of(cfg.first_month)}AA"
    changes = [
        ChangeRecord(release, descriptor_ids[int(idx)], CHANGE_TYPES[i % len(CHANGE_TYPES)])
        for i, idx in enumerate(evolving_idx)
    ]
    return hierarchy, columns, edges, changes


def generate(
    cfg: ScenarioConfig,
) -> tuple[Hierarchy, ArticleStore, tuple[np.ndarray, np.ndarray], list[ChangeRecord]]:
    """`generate_columns` with the articles as an `ArticleStore`, which holds
    no reference to the columns; articles with the same descriptors share
    one tuple.  The articles are built with the cyclic collector paused,
    since they hold no cycles; its state is restored after."""
    hierarchy, columns, edges, changes = generate_columns(cfg)
    m = columns.annotations
    texts = iter(np.array(columns.vocabulary, dtype=object)[m.indices].tolist())
    months = {k: month_from_index(k) for k in np.unique(columns.month_idx).tolist()}
    rows = ((i, months[k], tuple(islice(texts, n)), flag) for i, k, n, flag in zip(
        columns.ids.tolist(), columns.month_idx.tolist(), np.diff(m.indptr).tolist(),
        columns.retracted.tolist()))
    del columns, m
    same: dict[tuple[str, ...], tuple[str, ...]] = {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        store = ArticleStore({i: Article(i, month, same.setdefault(d, d), flag)
                              for i, month, d, flag in rows})
    finally:
        if enabled:
            gc.enable()
    return hierarchy, store, edges, changes
