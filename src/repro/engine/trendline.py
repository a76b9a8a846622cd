"""Trendline: the unit of matching produced by the GROUP operator (§5.3).

A :class:`Trendline` holds, for one value of the ``z`` attribute:

* the raw ``(x, y)`` points (kept for plotting, sketch matching, DTW and
  y-location constraints);
* the binned representation — one bin per raw point by default, or
  per-width bins when the user sets ``b`` — with per-bin representative
  coordinates; and
* :class:`~repro.engine.statistics.PrefixStats` accumulated in
  *normalized* coordinates (x scaled to [0, 1] over the trendline, y
  z-scored unless the query constrains raw y values), so the
  ``tan⁻¹``-based scores of Table 5 are scale-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Optional, Tuple

import numpy as np

from repro.engine.statistics import PrefixStats
from repro.errors import DataError


@dataclass
class Trendline:
    """One candidate visualization, ready for segmentation and scoring."""

    key: Hashable
    x: np.ndarray
    y: np.ndarray
    bin_x: np.ndarray
    bin_y: np.ndarray
    norm_bin_y: np.ndarray
    prefix: PrefixStats
    y_mean: float
    y_std: float
    offset: int = 0  # index of the first materialized bin (push-down (c))
    #: Lazily built prefix sums over the normalized bin values
    #: (Σy, Σy², Σi·y) used by the vectorized LineUnit kernel.
    _line_prefix: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def n_bins(self) -> int:
        """Number of bins available for segmentation."""
        return self.prefix.bins

    def __getstate__(self) -> Dict[str, object]:
        """Drop the cached line-fit prefix from pickles.

        It is derived data one cumsum away from ``norm_bin_y``; shipping
        it with object-passing shard tasks would inflate the
        per-task payload by three n-length arrays per trendline — the
        exact cost the transport work exists to avoid.  Workers rebuild
        it lazily on first LineUnit score.
        """
        state = self.__dict__.copy()
        state["_line_prefix"] = None
        return state

    def line_prefix(self) -> tuple:
        """Prefix sums ``(Σy, Σy², Σi·y)`` over the normalized bin values.

        ``i`` is the global bin index, so the sums of any half-open bin
        range are two lookups and a subtraction — sufficient statistics
        to evaluate the straight-line RMSE of a LineUnit over *many*
        candidate ranges in one vectorized expression (the matrix-kernel
        fast path).  Built on first use and cached; the arrays are
        derived from ``norm_bin_y`` so shared-memory reattached
        trendlines build their own local copy.
        """
        if self._line_prefix is None:
            values = np.asarray(self.norm_bin_y, dtype=float)
            index = np.arange(len(values), dtype=float)
            zero = np.zeros(1)
            self._line_prefix = (
                np.concatenate([zero, np.cumsum(values)]),
                np.concatenate([zero, np.cumsum(values * values)]),
                np.concatenate([zero, np.cumsum(index * values)]),
            )
        return self._line_prefix

    def x_to_bin(self, x_value: float, clamp: bool = True) -> int:
        """Map a raw x coordinate to the index of the closest bin."""
        if not clamp and not self.bin_x[0] <= x_value <= self.bin_x[-1]:
            raise DataError("x={} outside trendline domain".format(x_value))
        index = int(np.searchsorted(self.bin_x, x_value))
        if index > 0 and (
            index == len(self.bin_x)
            or abs(self.bin_x[index - 1] - x_value) <= abs(self.bin_x[index] - x_value)
        ):
            index -= 1
        return int(np.clip(index, 0, len(self.bin_x) - 1))

    def normalize_y_value(self, value: float) -> float:
        """Map a raw y value into the z-scored space used for scoring."""
        return (value - self.y_mean) / self.y_std

    def segment_values(self, l: int, r: int) -> np.ndarray:
        """Normalized bin values of ``[l, r)`` (sketch matching, UDPs)."""
        return self.norm_bin_y[l:r]

    def segment_raw(self, l: int, r: int) -> Tuple[np.ndarray, np.ndarray]:
        """Raw (x, y) bin values of ``[l, r)``."""
        return self.bin_x[l:r], self.bin_y[l:r]


def cast_trendline(trendline: Trendline, dtype: Any) -> Trendline:
    """A copy of ``trendline`` with every float array cast to ``dtype``.

    The ``precision="float32"`` mode's workhorse: the cumulative prefix
    block is cast as one unit (keeping the fused-gather layout) and the
    cached line-fit prefix is dropped so it rebuilds in the new dtype.
    Casting float64 statistics to float32 rounds — this is explicitly an
    approximate representation, never part of the byte-identity
    contract.  ``dtype=float64`` returns the trendline unchanged.
    """
    dtype = np.dtype(dtype)
    if dtype == np.float64:
        return trendline
    prefix = trendline.prefix
    if prefix.stacked is not None:
        stacked = np.ascontiguousarray(prefix.stacked, dtype=dtype)
        cast_prefix = PrefixStats.from_cumulative(*stacked, stacked=stacked)
    else:
        cast_prefix = PrefixStats.from_cumulative(
            prefix.count.astype(dtype),
            prefix.sx.astype(dtype),
            prefix.sy.astype(dtype),
            prefix.sxy.astype(dtype),
            prefix.sxx.astype(dtype),
        )
    return Trendline(
        key=trendline.key,
        x=trendline.x.astype(dtype),
        y=trendline.y.astype(dtype),
        bin_x=trendline.bin_x.astype(dtype),
        bin_y=trendline.bin_y.astype(dtype),
        norm_bin_y=trendline.norm_bin_y.astype(dtype),
        prefix=cast_prefix,
        y_mean=trendline.y_mean,
        y_std=trendline.y_std,
        offset=trendline.offset,
    )


def trendline_extends(base: Trendline, extended: Trendline) -> bool:
    """True when ``extended`` is ``base`` plus appended bins, bit for bit.

    The gate for the DP suffix re-solve: state computed on ``base`` may
    seed a solve over ``extended`` only if every value the recurrence
    (and every unit scorer) could have read is unchanged — raw points,
    bin coordinates, normalized values, normalization constants, and the
    cumulative prefix arrays.  Appends that shift ``y_mean``/``y_std``
    or the x span rescale history and fail here, forcing the cold solve
    that byte-identity then requires.
    """
    if extended.n_bins < base.n_bins:
        return False
    if base.offset != extended.offset:
        return False
    if base.y_mean != extended.y_mean or base.y_std != extended.y_std:
        return False
    n = base.n_bins
    for ours, theirs in (
        (base.bin_x, extended.bin_x),
        (base.bin_y, extended.bin_y),
        (base.norm_bin_y, extended.norm_bin_y),
    ):
        if not np.array_equal(theirs[:n], ours):
            return False
    if not np.array_equal(extended.x[: len(base.x)], base.x):
        return False
    if not np.array_equal(extended.y[: len(base.y)], base.y):
        return False
    return extended.prefix.extends(base.prefix)


def build_trendline(
    key: Hashable,
    x: np.ndarray,
    y: np.ndarray,
    bin_width: Optional[float] = None,
    normalize_y: bool = True,
    keep_range: Optional[tuple] = None,
) -> Trendline:
    """Assemble a :class:`Trendline` from sorted raw points.

    ``keep_range`` is the push-down-(c) hook: when the query pins every
    segment, statistics are materialized only over ``[lo_bin, hi_bin)``
    (raw values are always kept in full for plotting).

    Points must already be sorted by x and aggregated to one y per x by
    the caller (the GROUP operator does both).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y):
        raise DataError("x and y lengths differ: {} vs {}".format(len(x), len(y)))
    if len(x) < 2:
        raise DataError("a trendline needs at least two points (key={!r})".format(key))
    if np.any(np.diff(x) < 0):
        raise DataError("trendline x values must be sorted (key={!r})".format(key))

    # Bin assignment: one bin per point, or fixed-width bins on the x axis.
    if bin_width is None or bin_width <= 0:
        bin_index = np.arange(len(x))
    else:
        bin_index = np.floor((x - x[0]) / bin_width).astype(int)
        # Re-number to consecutive ids so empty bins do not appear.
        _, bin_index = np.unique(bin_index, return_inverse=True)

    n_bins = int(bin_index[-1]) + 1
    counts = np.bincount(bin_index, minlength=n_bins)
    bin_x = np.bincount(bin_index, weights=x, minlength=n_bins) / counts
    bin_y = np.bincount(bin_index, weights=y, minlength=n_bins) / counts

    # Normalized coordinates: x in [0, 1] across the trendline, y z-scored.
    x_span = x[-1] - x[0]
    if x_span <= 0:
        raise DataError("trendline spans a single x value (key={!r})".format(key))
    if normalize_y:
        y_mean = float(y.mean())
        y_std = float(y.std())
        if y_std < 1e-12:
            y_std = 1.0
    else:
        y_mean, y_std = 0.0, 1.0
    norm_x = (x - x[0]) / x_span
    norm_y = (y - y_mean) / y_std
    norm_bin_y = (bin_y - y_mean) / y_std

    offset = 0
    if keep_range is not None:
        lo, hi = keep_range
        lo = max(0, int(lo))
        hi = min(n_bins, int(hi))
        if hi - lo < 2:
            raise DataError("keep_range {!r} leaves fewer than two bins".format(keep_range))
        point_mask = (bin_index >= lo) & (bin_index < hi)
        prefix = PrefixStats.from_binned(
            norm_x[point_mask], norm_y[point_mask], bin_index[point_mask] - lo
        )
        offset = lo
        bin_x = bin_x[lo:hi]
        bin_y = bin_y[lo:hi]
        norm_bin_y = norm_bin_y[lo:hi]
    else:
        prefix = PrefixStats.from_binned(norm_x, norm_y, bin_index)

    return Trendline(
        key=key,
        x=x,
        y=y,
        bin_x=bin_x,
        bin_y=bin_y,
        norm_bin_y=norm_bin_y,
        prefix=prefix,
        y_mean=y_mean,
        y_std=y_std,
        offset=offset,
    )
