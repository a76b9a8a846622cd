"""Z-normalized Euclidean distance — the point-wise baseline (§7.3).

The simplest measure visual query systems offer: after z-normalization
and length alignment, the root-mean-square point-wise difference.  Good
when the query *is* a trendline from the same domain; easily
overwhelmed by phase shifts and local noise, which is the behaviour the
user study contrasts against ShapeSearch's scoring functions.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.engine.chains import CompiledQuery
from repro.engine.scoring import resample, znormalize
from repro.engine.trendline import Trendline

from benchmarks.paper.baselines.dtw import query_prototypes


def euclidean_distance(a: np.ndarray, b: np.ndarray, normalize: bool = True) -> float:
    """RMS point-wise distance after optional z-normalization + resampling."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) != len(b):
        b = resample(b, len(a))
    if normalize:
        a = znormalize(a)
        b = znormalize(b)
    return float(math.sqrt(np.mean((a - b) ** 2)))


def euclidean_query_distance(trendline: Trendline, query: CompiledQuery) -> float:
    """Min Euclidean distance from the trendline to any chain prototype."""
    series = trendline.norm_bin_y
    return min(
        euclidean_distance(series, prototype)
        for prototype in query_prototypes(query, len(series))
    )


def rank_by_euclidean(
    trendlines: Sequence[Trendline], query: CompiledQuery, k: int = 10
) -> List[Tuple[Trendline, float]]:
    """Top-k visualizations by ascending Euclidean distance."""
    scored = [
        (trendline, euclidean_query_distance(trendline, query))
        for trendline in trendlines
    ]
    scored.sort(key=lambda item: (item[1], str(item[0].key)))
    return scored[:k]
