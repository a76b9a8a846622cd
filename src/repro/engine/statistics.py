"""Summarized statistics and additive line fitting (paper §5.3, Theorem 5.1).

The GROUP operator reduces each trendline to per-bin *summarized
statistics* — the five numbers ``Σx, Σy, Σx·y, Σx², n`` — which are
sufficient to fit a least-squares line over any contiguous union of bins
without revisiting the raw points (Theorem 5.1, "Additivity").  This
module provides:

* :class:`SummaryStats` — the five numbers with merge (+) and the
  regression formulas for slope and intercept.
* :class:`PrefixStats` — cumulative arrays over the bins of a trendline,
  so that the statistics of any half-open bin range ``[l, r)`` are two
  array lookups and a subtraction, and slopes for *many* ranges can be
  computed in one vectorized expression (used by the DP engine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: Degenerate-denominator guard for the slope formula.
_EPS = 1e-12


@dataclass(frozen=True)
class SummaryStats:
    """The five summarized statistics of a VisualSegment (paper §5.3)."""

    n: float
    sx: float
    sy: float
    sxy: float
    sxx: float

    @classmethod
    def of(cls, x: np.ndarray, y: np.ndarray) -> "SummaryStats":
        """Statistics of raw points (used in tests and leaf construction)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return cls(
            n=float(len(x)),
            sx=float(x.sum()),
            sy=float(y.sum()),
            sxy=float((x * y).sum()),
            sxx=float((x * x).sum()),
        )

    def __add__(self, other: "SummaryStats") -> "SummaryStats":
        """Merge two adjacent VisualSegments (Theorem 5.1)."""
        return SummaryStats(
            n=self.n + other.n,
            sx=self.sx + other.sx,
            sy=self.sy + other.sy,
            sxy=self.sxy + other.sxy,
            sxx=self.sxx + other.sxx,
        )

    def slope(self) -> float:
        """Least-squares slope; 0.0 for degenerate segments (all x equal)."""
        denominator = self.n * self.sxx - self.sx * self.sx
        if abs(denominator) < _EPS:
            return 0.0
        return (self.n * self.sxy - self.sx * self.sy) / denominator

    def intercept(self) -> float:
        """Least-squares intercept δ = (Σy − θ·Σx) / n."""
        if self.n < _EPS:
            return 0.0
        return (self.sy - self.slope() * self.sx) / self.n


class PrefixStats:
    """Cumulative summarized statistics over the bins of one trendline.

    ``prefix[i]`` holds the sums over all raw points that fall in bins
    ``0..i-1``; a bin may summarize one raw point (the default) or many
    (when GROUP bins by width ``b``).  Range queries use half-open bin
    intervals ``[l, r)``.
    """

    __slots__ = ("count", "sx", "sy", "sxy", "sxx", "bins", "stacked")

    #: Row order of :attr:`stacked` — chosen to match the order the five
    #: prefix arrays are packed in a shared-memory export, so a worker's
    #: reattached view of the segment *is* a valid ``stacked`` array.
    STACKED_ROWS = ("count", "sx", "sy", "sxy", "sxx")

    def __init__(self, bin_x_sums, bin_y_sums, bin_xy_sums, bin_xx_sums, bin_counts):
        self.bins = len(bin_counts)
        # All five cumulative arrays live as rows of one (5, bins+1)
        # block: _slopes then gathers every statistic of a range set in
        # one fancy-indexing pass instead of five (the DP kernels are
        # bandwidth-bound at large n, and five separate gathers pay the
        # numpy dispatch and the index walk five times).
        stacked = np.empty((5, self.bins + 1))
        stacked[:, 0] = 0.0
        np.cumsum(bin_counts, dtype=float, out=stacked[0, 1:])
        np.cumsum(bin_x_sums, dtype=float, out=stacked[1, 1:])
        np.cumsum(bin_y_sums, dtype=float, out=stacked[2, 1:])
        np.cumsum(bin_xy_sums, dtype=float, out=stacked[3, 1:])
        np.cumsum(bin_xx_sums, dtype=float, out=stacked[4, 1:])
        self.stacked = stacked
        self.count, self.sx, self.sy, self.sxy, self.sxx = stacked

    @classmethod
    def from_points(cls, x: np.ndarray, y: np.ndarray) -> "PrefixStats":
        """One bin per raw point."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return cls(x, y, x * y, x * x, np.ones(len(x)))

    @classmethod
    def from_cumulative(cls, count, sx, sy, sxy, sxx, stacked=None) -> "PrefixStats":
        """Adopt already-cumulative arrays without recomputation.

        This is the shared-memory reattachment path: the arrays are the
        exact ``prefix[i]`` buffers a publishing process built (length
        ``bins + 1``, leading zero included), typically read-only views
        over a shared segment, and are shared as-is.  ``stacked``, when
        given, is the same five arrays as rows of one ``(5, bins + 1)``
        block (row order :data:`STACKED_ROWS`) — a shared export packs
        them consecutively, so the publisher's attach path passes a
        zero-copy reshape and keeps the fused ``_slopes`` gather; when it
        is ``None`` the per-array gather fallback is used instead.
        """
        self = cls.__new__(cls)
        self.bins = len(count) - 1
        self.count = count
        self.sx = sx
        self.sy = sy
        self.sxy = sxy
        self.sxx = sxx
        self.stacked = stacked
        return self

    @classmethod
    def concatenate(cls, prefixes) -> Tuple["PrefixStats", np.ndarray]:
        """Many prefixes end to end as ``(stats, offsets)``: prefix ``c``'s
        row ``p`` is column ``offsets[c] + p``, so one :meth:`_slopes`
        gather fits ranges of all of them — each bitwise its own."""
        rows = [
            np.stack([getattr(p, row) for row in cls.STACKED_ROWS])
            if p.stacked is None
            else p.stacked
            for p in prefixes
        ]
        block = np.concatenate(rows, axis=1)
        widths = np.array([p.bins + 1 for p in prefixes])
        return cls.from_cumulative(*block, stacked=block), np.cumsum(widths) - widths

    @classmethod
    def from_binned(cls, x: np.ndarray, y: np.ndarray, bin_index: np.ndarray) -> "PrefixStats":
        """Bins given by a non-decreasing integer bin index per raw point."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        bins = int(bin_index[-1]) + 1 if len(bin_index) else 0
        counts = np.bincount(bin_index, minlength=bins)
        return cls(
            np.bincount(bin_index, weights=x, minlength=bins),
            np.bincount(bin_index, weights=y, minlength=bins),
            np.bincount(bin_index, weights=x * y, minlength=bins),
            np.bincount(bin_index, weights=x * x, minlength=bins),
            counts,
        )

    def __getstate__(self):
        """Pickle the stacked block once, not five row views plus it.

        Default ``__slots__`` pickling would serialize ``stacked`` *and*
        each named row view as an independent array — double the bytes on
        the wire and a receiver whose rows no longer alias the block.
        """
        if self.stacked is not None:
            return {"bins": self.bins, "stacked": np.ascontiguousarray(self.stacked)}
        return {
            "bins": self.bins,
            "count": self.count,
            "sx": self.sx,
            "sy": self.sy,
            "sxy": self.sxy,
            "sxx": self.sxx,
        }

    def __setstate__(self, state):
        self.bins = state["bins"]
        stacked = state.get("stacked")
        self.stacked = stacked
        if stacked is not None:
            self.count, self.sx, self.sy, self.sxy, self.sxx = stacked
        else:
            self.count = state["count"]
            self.sx = state["sx"]
            self.sy = state["sy"]
            self.sxy = state["sxy"]
            self.sxx = state["sxx"]

    def extends(self, base: "PrefixStats") -> bool:
        """True when this prefix is a bitwise extension of ``base``.

        The precondition for reusing DP state computed on the shorter
        trendline (the streaming suffix re-solve): every cumulative
        array must *begin* with ``base``'s exact values.  Appended raw
        rows that shift a group's normalization constants rewrite the
        whole history and fail this check — which is exactly when a cold
        re-solve is required for byte-identical results.
        """
        if base.bins > self.bins:
            return False
        n = base.bins + 1
        return (
            np.array_equal(self.count[:n], base.count)
            and np.array_equal(self.sx[:n], base.sx)
            and np.array_equal(self.sy[:n], base.sy)
            and np.array_equal(self.sxy[:n], base.sxy)
            and np.array_equal(self.sxx[:n], base.sxx)
        )

    def range(self, l: int, r: int) -> SummaryStats:
        """Summarized statistics of bins ``[l, r)``."""
        return SummaryStats(
            n=float(self.count[r] - self.count[l]),
            sx=float(self.sx[r] - self.sx[l]),
            sy=float(self.sy[r] - self.sy[l]),
            sxy=float(self.sxy[r] - self.sxy[l]),
            sxx=float(self.sxx[r] - self.sxx[l]),
        )

    def slope(self, l: int, r: int) -> float:
        """Fitted slope of bins ``[l, r)`` (allocation-free scalar path)."""
        n = self.count[r] - self.count[l]
        sx = self.sx[r] - self.sx[l]
        sy = self.sy[r] - self.sy[l]
        sxy = self.sxy[r] - self.sxy[l]
        sxx = self.sxx[r] - self.sxx[l]
        denominator = n * sxx - sx * sx
        if abs(denominator) < _EPS:
            return 0.0
        return float((n * sxy - sx * sy) / denominator)

    def slopes_for_ends(self, l: int, rs: np.ndarray) -> np.ndarray:
        """Vectorized slopes of ``[l, r)`` for each ``r`` in ``rs``."""
        return self._slopes(np.full(len(rs), l), np.asarray(rs))

    def slopes_for_starts(self, ls: np.ndarray, r: int) -> np.ndarray:
        """Vectorized slopes of ``[l, r)`` for each ``l`` in ``ls``."""
        ls = np.asarray(ls)
        return self._slopes(ls, np.full(len(ls), r))

    def slope_matrix(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Slopes for the full cross product ``starts × ends``.

        Entry ``[i, j]`` is the slope of ``[starts[i], ends[j])``; invalid
        ranges (fewer than two points) come out as 0 and must be masked by
        the caller.  This is the workhorse of the DP matrix kernel: one
        call summarizes every (split, end) transition of a layer.
        """
        l = np.asarray(starts)[:, None]
        r = np.asarray(ends)[None, :]
        return self._slopes(l, r)

    def slopes_pairs(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Vectorized slopes of paired ranges ``[starts[i], ends[i])``.

        The batched twin of :meth:`slope` for callers holding explicit
        (start, end) pairs — SegmentTree leaf scoring, level bounds, the
        push-down eager-bound path.  Values are bitwise identical to the
        scalar :meth:`slope` on each pair.
        """
        return self._slopes(np.asarray(starts), np.asarray(ends))

    def _slopes(self, l, r):
        """Slopes of ``[l, r)`` for index arrays of any shape, bitwise the
        scalar :meth:`slope` of each range (same operations and order)."""
        if self.stacked is not None:
            # Fused gather: one fancy-indexing pass per index set pulls
            # all five statistics at once (rows of the gathered block are
            # contiguous views, so the arithmetic below is unchanged).
            # Element-wise this is the same ``prefix[r] - prefix[l]``
            # subtraction as the per-array path, so values are bitwise
            # identical either way.
            # (np.take, not ``stacked[:, r]``: the same gather at a third of
            # the cost for the many-small-index-sets the kernels issue.)
            gathered = np.take(self.stacked, r, axis=1) - np.take(self.stacked, l, axis=1)
            n, sx, sy, sxy, sxx = gathered
        else:
            n = self.count[r] - self.count[l]
            sx = self.sx[r] - self.sx[l]
            sy = self.sy[r] - self.sy[l]
            sxy = self.sxy[r] - self.sxy[l]
            sxx = self.sxx[r] - self.sxx[l]
        return fit_slopes(n, sx, sy, sxy, sxx)


def fit_slopes(n, sx, sy, sxy, sxx):
    """Least-squares slopes from range statistics, computed in place.

    The one spelling of the vectorized slope formula: the five arrays
    (any common shape and float dtype) are consumed as scratch and the
    result reuses ``sxy``'s storage.  The matrix kernel funnels (splits ×
    ends) tiles through here, where temporaries are megabytes and memory
    traffic — not flops — is the bottleneck.  Operand order matches the
    scalar :meth:`PrefixStats.slope` formula exactly, so values are
    unchanged.
    """
    numerator = np.multiply(n, sxy, out=sxy)
    numerator -= np.multiply(sx, sy, out=sy)
    denominator = np.multiply(n, sxx, out=sxx)
    denominator -= np.multiply(sx, sx, out=sx)
    # Degenerate ranges are detected and substituted under the same
    # _EPS mask (a near-zero denominator must not be divided by any
    # more than an exactly-zero one; both read as slope 0.0, matching
    # the scalar slope()/SummaryStats.slope() paths bit for bit).
    degenerate = np.abs(denominator) < _EPS
    denominator[degenerate] = 1.0
    slopes = np.divide(numerator, denominator, out=numerator)
    slopes[degenerate] = 0.0
    return slopes
