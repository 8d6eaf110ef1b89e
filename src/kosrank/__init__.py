"""kosrank: time-varying concept relevance for hierarchical KOS vocabularies.

Quantifies how relevant each concept of a tree-structured vocabulary is to
an annotated, cited document corpus, along four aspects (informativeness,
usefulness, disruptiveness, influence), fuses them into a single ranking,
and evaluates the result against concept-change and retraction cohorts.
"""

from .citegraph import CitationGraph, build_graph, cumulative_snapshot, sample_nodes
from .corpus import Article, ArticleStore, parse_articles, store_from_articles
from .evaluate import ChangeRecord, TestResult, mann_whitney
from .fusion import rank_by_aspect, rank_trend_slope, rrf_fuse
from .graphmetrics import ArticleScores, aggregate_to_nodes, disruption_all, disruption_of, pagerank
from .hierarchy import Hierarchy, level_of, parent_of, parse_hierarchy
from .infometrics import informativeness
from .propagation import propagate
from .scores import ASPECTS
from .synthgen import ScenarioConfig, generate

__all__ = [
    "ASPECTS",
    "Article",
    "ArticleScores",
    "ArticleStore",
    "ChangeRecord",
    "CitationGraph",
    "Hierarchy",
    "ScenarioConfig",
    "TestResult",
    "aggregate_to_nodes",
    "build_graph",
    "cumulative_snapshot",
    "disruption_all",
    "disruption_of",
    "generate",
    "informativeness",
    "level_of",
    "mann_whitney",
    "pagerank",
    "parent_of",
    "parse_articles",
    "parse_hierarchy",
    "propagate",
    "rank_by_aspect",
    "rank_trend_slope",
    "rrf_fuse",
    "sample_nodes",
    "store_from_articles",
]

__version__ = "0.1.0"
