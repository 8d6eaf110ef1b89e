"""Bottom-up propagation of node seed scores through the hierarchy.

Levels are global depths over the whole category forest, processed deepest
first.  A seeded leaf keeps its seed; an internal node receives the sum of
its children's values divided by the total number of nodes on the
children's level (not just its own child count), plus its own seed if any.
Unseeded leaves contribute zero and stay unscored.

The walk runs on the hierarchy's positional form, one `np.add.at` of the
children's values into their parents' slots per level.  `np.add.at` adds
in index order and positions are in code order, so each parent sums its
children one by one in ascending code order and the scores keep their bits.
"""
from __future__ import annotations

from typing import Mapping

import numpy as np

from .hierarchy import Hierarchy

def propagate(h: Hierarchy, seeds: Mapping[str, float]) -> dict[str, float]:
    """Spread `seeds` (tree code -> value) up the tree; see module docstring.

    Raises KeyError for seed codes outside the hierarchy.
    """
    seed, seeded = h.node_vector(seeds)
    if int(seeded.sum()) != len(seeds):
        unknown = next(code for code in seeds if code not in h.position)
        raise KeyError(f"unknown seed code {unknown}")
    values, scored = propagate_positions(h, seed, seeded)
    keep = np.flatnonzero(scored)
    return dict(zip([h.codes[i] for i in keep], values[keep].tolist()))


def propagate_positions(
    h: Hierarchy, seed: np.ndarray, seeded: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """`propagate` on seeds laid out by node position: `seed[i]` is node i's
    seed where the boolean `seeded[i]` holds, and must be 0 elsewhere.

    Returns the values by position and the scored mask: every internal node
    and every seeded leaf.  Values are 0 where the mask is unset.
    """
    internal = np.isin(np.arange(len(h.codes)), h.parent)  # some node's parent
    values = np.where(internal, 0.0, seed)
    for level in range(int(h.level.max(initial=1)), 1, -1):
        below = np.flatnonzero(h.level == level)
        pooled = np.zeros(len(h.codes), dtype=np.float64)
        np.add.at(pooled, h.parent[below], values[below])
        above = np.unique(h.parent[below])
        values[above] = pooled[above] / len(below) + seed[above]
    return values, internal | seeded
