"""Score bounds for ShapeQueries (paper §6.3, Table 7, Theorem 6.4).

Given the fitted slopes of the SegmentTree nodes at some level, every
unit's final score is bounded (Table 7); operator combination preserves
boundedness (Property 5.1): CONCAT's mean, AND's min and OR's max of
per-child bounds bound the combined score.  The two-stage pruning driver
(``pruning.py``) applies the same per-unit bounds to the slopes its
trees' entries record (``tree_upper_bound``): bounds from raw level
windows do not hold for placements finer than a window.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.engine.chains import Chain, CompiledQuery
from repro.engine.trendline import Trendline
from repro.engine.units import MIN_SEGMENT_BINS, SlopeUnit


def level_slopes(trendline: Trendline, ranges: List[Tuple[int, int]]) -> np.ndarray:
    """Fitted slopes of the given node ranges (vectorized)."""
    starts = np.array([l for l, _ in ranges])
    ends = np.array([r for _, r in ranges])
    valid = ends - starts >= MIN_SEGMENT_BINS
    if not valid.any():
        return np.zeros(1)
    return np.asarray(trendline.prefix.slopes_pairs(starts[valid], ends[valid]))


def chain_bounds(
    trendline: Trendline, chain: Chain, slopes: np.ndarray
) -> Tuple[float, float]:
    """(lower, upper) bound on a chain's weighted-sum score (Property 5.1)."""
    lower = 0.0
    upper = 0.0
    for cu in chain.units:
        if isinstance(cu.unit, SlopeUnit):
            unit_lower, unit_upper = cu.unit.bounds_from_slopes(slopes)
        else:
            unit_lower, unit_upper = (-1.0, 1.0)
        lower += cu.weight * unit_lower
        upper += cu.weight * unit_upper
    return lower, upper


def query_bounds(
    trendline: Trendline, query: CompiledQuery, ranges: List[Tuple[int, int]]
) -> Tuple[float, float]:
    """(lower, upper) bound on the query score from a level's node ranges.

    The query is the max over its alternative chains, so both bounds are
    maxima of the per-chain bounds.
    """
    slopes = level_slopes(trendline, ranges)
    lower = -1.0
    upper = -1.0
    for chain in query.chains:
        chain_lower, chain_upper = chain_bounds(trendline, chain, slopes)
        lower = max(lower, chain_lower)
        upper = max(upper, chain_upper)
    return lower, upper


def query_upper_bound(
    trendline: Trendline, query: CompiledQuery, window: int
) -> float:
    """Upper bound from a uniform grid of ``window``-bin ranges."""
    n = trendline.n_bins
    ranges = [
        (start, min(start + window, n))
        for start in range(0, max(1, n - MIN_SEGMENT_BINS + 1), window)
        if min(start + window, n) - start >= MIN_SEGMENT_BINS
    ]
    if not ranges:
        return 1.0
    return query_bounds(trendline, query, ranges)[1]
