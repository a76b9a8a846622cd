"""A visual-query-system baseline (the user study's comparison tool, §7.1).

Replicates the capabilities of sketch-first VQS tools (TimeSearcher,
Google Correlate, Zenvisage's sketch mode): the user draws a shape, picks
Euclidean or DTW as the similarity measure, optionally smooths the
candidates, and the system returns the nearest trendlines by *value*
similarity.  No shape algebra, no blurry semantics — exactly the
expressiveness gap the study measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.scoring import resample
from repro.engine.trendline import Trendline
from repro.errors import ExecutionError

from benchmarks.paper.baselines.dtw import dtw_distance
from benchmarks.paper.baselines.euclidean import euclidean_distance

MEASURES = ("euclidean", "dtw")


def smooth(values: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with edge padding (the VQS smoothing knob)."""
    if window <= 1:
        return np.asarray(values, dtype=float)
    kernel = np.ones(window) / window
    padded = np.concatenate(
        [np.repeat(values[0], window // 2), values, np.repeat(values[-1], window - 1 - window // 2)]
    )
    return np.convolve(padded, kernel, mode="valid")


@dataclass
class VisualQuerySystem:
    """The baseline tool: sketch in, nearest trendlines out."""

    measure: str = "euclidean"
    smoothing: int = 1
    band: Optional[int] = None

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise ExecutionError(
                "unknown measure {!r}; choose from {}".format(self.measure, MEASURES)
            )

    def distance(self, candidate: np.ndarray, sketch: np.ndarray) -> float:
        """Distance between one candidate series and the drawn sketch."""
        candidate = smooth(np.asarray(candidate, dtype=float), self.smoothing)
        sketch = resample(np.asarray(sketch, dtype=float), len(candidate))
        if self.measure == "dtw":
            return dtw_distance(candidate, sketch, band=self.band)
        return euclidean_distance(candidate, sketch)

    def rank(
        self,
        trendlines: Sequence[Trendline],
        sketch_y: Sequence[float],
        k: int = 10,
    ) -> List[Tuple[Trendline, float]]:
        """Top-k trendlines most similar to the sketch."""
        sketch = np.asarray(list(sketch_y), dtype=float)
        scored = [
            (trendline, self.distance(trendline.norm_bin_y, sketch))
            for trendline in trendlines
        ]
        scored.sort(key=lambda item: (item[1], str(item[0].key)))
        return scored[:k]
