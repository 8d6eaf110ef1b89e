"""kosrank: time-varying concept relevance for hierarchical KOS vocabularies.

Quantifies how relevant each concept of a tree-structured vocabulary is to
an annotated, cited document corpus, along four aspects (informativeness,
usefulness, disruptiveness, influence), fuses them into a single ranking,
and evaluates the result against concept-change and retraction cohorts.
"""

__version__ = "0.1.0"
