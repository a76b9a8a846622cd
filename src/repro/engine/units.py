"""Compiled scoreable units: the leaves the segmentation engines place.

A ShapeQuery is compiled (:mod:`repro.engine.chains`) into *alternative
chains* of :class:`CompiledUnit` objects.  Each unit knows how to score
itself over a half-open bin range ``[l, r)`` of a
:class:`~repro.engine.trendline.Trendline`; slope-based units also
provide vectorized row evaluation, which is what makes the DP engine
O(n²k) instead of O(n³k).

Unit taxonomy (mirroring the PATTERN values of Table 1):

* :class:`SlopeUnit` — up/down/flat/θ/any/empty, vectorized.
* :class:`LineUnit` — a bare-location segment matched against the
  straight line between its (y.s, y.e) endpoints.
* :class:`QuantifierUnit` — occurrence-quantified pattern (``m={2,}``).
* :class:`PositionUnit` — ``$i`` slope comparison (two-pass, §DESIGN 2.7).
* :class:`SketchUnit` — precise polyline matching (``v=...``).
* :class:`UdpUnit` — registered user-defined pattern.
* :class:`NestedUnit` — a full sub-query as a pattern (``p=[...]``).
* :class:`WindowUnit` — ITERATOR wrapper: best placement of a fixed-width
  window of the wrapped unit inside the allotted region.
* :class:`AndUnit` — AND (⊙) of branches over one shared region.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algebra.primitives import Location, Quantifier
from repro.engine import scoring
from repro.engine.trendline import Trendline

#: Relative tolerance (fraction of the trendline's y span) for matching
#: y.s / y.e location constraints.
Y_TOLERANCE = 0.1

#: Score assigned when a LOCATION constraint is not satisfied (paper §5.2).
INFEASIBLE = -1.0

#: Minimum number of bins a VisualSegment may span (a line needs 2 points).
MIN_SEGMENT_BINS = 2

#: Perceptual minimum width of a fuzzy VisualSegment, as a fraction of the
#: region being segmented.  The paper's GROUP operator bins at pixel
#: granularity (b = x range / pixels), which implicitly stops a "pattern"
#: from living inside a couple of samples; without such a floor,
#: z-normalized noise offers near-vertical 2-bin segments that score ±1
#: and let flat noise beat genuinely shaped trendlines.
MIN_SEGMENT_FRACTION = 0.1

#: Absolute cap on the proportional minimum (long trendlines may still
#: contain legitimately narrow phases, e.g. a supernova spike).
MIN_SEGMENT_CAP = 10


def run_min_length(lo: int, hi: int, units_count: int) -> int:
    """Minimum bins per unit when fuzzily segmenting ``[lo, hi)``."""
    proportional = int(round((hi - lo) * MIN_SEGMENT_FRACTION))
    length = max(MIN_SEGMENT_BINS, min(MIN_SEGMENT_CAP, proportional))
    fit = (hi - lo) // max(1, units_count)
    return max(MIN_SEGMENT_BINS, min(length, fit))


def default_leaf_size(min_len: int) -> int:
    """The SegmentTree's leaf width for a run whose unit floor is ``min_len``.

    Finer than the minimum unit width so break points stay close to
    DP's; the width floor is enforced on interior placements during
    combination instead (boundary placements keep growing through merges
    at higher levels) — so a chain's first and last unit may come out as
    narrow as one leaf, which is the width the shape index bounds them at.
    """
    return max(MIN_SEGMENT_BINS, min_len // 2)

#: Context mapping a segment's AST index to its fitted slope (pass 2).
#: Solve-scoped auxiliary entries (e.g. the classified-runs memo below)
#: use non-integer keys so they can never collide with a segment index.
SlopeContext = Dict[int, float]

#: Context key under which QuantifierUnit memoizes classified runs.
RUNS_MEMO_KEY = "__runs_memo__"

#: Entry cap on the classified-runs memo.  A mid-chain quantifier is
#: scored at every (split, end) pair the DP visits — O(n²) distinct
#: ranges, each seen once — so an unbounded memo would grow quadratically
#: for near-zero hit rate.  The payoff ranges (final-pass re-scores,
#: shared units across chains, SegmentTree merges) are recent ones, so a
#: small FIFO-evicted dict keeps the wins with bounded memory.
RUNS_MEMO_CAP = 4096

#: The shared unconstrained LOCATION.  ``Location`` is a frozen
#: dataclass, so one instance serves every unit that has no location
#: constraint (and keeps function signatures free of call-in-default,
#: flake8-bugbear B008).
FREE_LOCATION = Location()


class CompiledUnit:
    """Base class; concrete units override :meth:`score` at minimum."""

    #: AST-wide ShapeSegment index (for POSITION references); −1 for AND.
    seg_index: int = -1
    #: Leaf-level OPPOSITE flag (normalization pushed `!` down to here).
    negated: bool = False
    #: Location constraints in raw domain coordinates.
    location: Location = FREE_LOCATION
    #: Whether score_ends/score_starts are true vectorized fast paths.
    vectorized: bool = False
    #: Whether the unit's score is a pure function of the fitted slope,
    #: so :meth:`score_matrix_from_slopes` can consume a slope matrix
    #: shared across DP layers (the matrix kernel computes each tile's
    #: slopes once and every slope-based layer reuses them).
    slope_based: bool = False
    #: Whether final scoring needs a second pass with fitted slopes.
    has_position: bool = False

    # -- pinning -----------------------------------------------------------
    def resolve_pins(self, trendline: Trendline) -> Tuple[Optional[int], Optional[int]]:
        """Map x.s/x.e constraints to (start bin, end bin) for this trendline.

        Either side may be None (fuzzy).  The end bin is exclusive.
        """
        loc = self.location
        start = end = None
        if loc.x_start is not None:
            start = trendline.x_to_bin(loc.x_start)
        if loc.x_end is not None:
            end = trendline.x_to_bin(loc.x_end) + 1
        return start, end

    # -- feasibility (y constraints) ----------------------------------------
    def _y_feasible(self, trendline: Trendline, l: int, r: int) -> bool:
        loc = self.location
        if loc.y_start is None and loc.y_end is None:
            return True
        span = float(trendline.y.max() - trendline.y.min()) or 1.0
        tolerance = Y_TOLERANCE * span
        if loc.y_start is not None and abs(trendline.bin_y[l] - loc.y_start) > tolerance:
            return False
        if loc.y_end is not None and abs(trendline.bin_y[r - 1] - loc.y_end) > tolerance:
            return False
        return True

    def _signed(self, value):
        return -value if self.negated else value

    # -- scoring -------------------------------------------------------------
    def score(
        self,
        trendline: Trendline,
        l: int,
        r: int,
        context: Optional[SlopeContext] = None,
    ) -> float:
        raise NotImplementedError

    def score_with_slope(self, trendline, l, r, slope=None, context=None) -> float:
        """:meth:`score` given ``[l, r)``'s fitted ``slope``, which units
        that score from the slope use instead of refitting."""
        return self.score(trendline, l, r, context)

    def score_ends(
        self,
        trendline: Trendline,
        l: int,
        rs: np.ndarray,
        context: Optional[SlopeContext] = None,
    ) -> np.ndarray:
        """Scores of ``[l, r)`` for every ``r`` in ``rs`` (default: loop)."""
        return np.array([self.score(trendline, l, int(r), context) for r in rs])

    def score_starts(
        self,
        trendline: Trendline,
        ls: np.ndarray,
        r: int,
        context: Optional[SlopeContext] = None,
    ) -> np.ndarray:
        """Scores of ``[l, r)`` for every ``l`` in ``ls`` (default: loop)."""
        return np.array([self.score(trendline, int(l), r, context) for l in ls])

    def score_pairs(
        self,
        trendline: Trendline,
        starts: np.ndarray,
        ends: np.ndarray,
        context: Optional[SlopeContext] = None,
    ) -> np.ndarray:
        """Scores of the paired ranges ``[starts[i], ends[i])``.

        Batched leaf/bound evaluation (SegmentTree leaves score every
        unit over every leaf range in one call).  The default loops over
        :meth:`score`, so values always match the scalar path.
        """
        return np.array(
            [self.score(trendline, int(l), int(r), context) for l, r in zip(starts, ends)]
        )

    def score_matrix(
        self,
        trendline: Trendline,
        starts: np.ndarray,
        ends: np.ndarray,
        context: Optional[SlopeContext] = None,
    ) -> np.ndarray:
        """Unit score for every combination ``[starts[i], ends[j])``.

        This is the DP matrix kernel's workhorse: one (splits × ends)
        tile per call.  Vectorized units override it with a closed-form
        evaluation over :meth:`PrefixStats.slope_matrix`; the default is
        the batched fallback — one :meth:`score_ends` row per start — so
        non-vectorizable units (sketches, UDPs, nested queries) produce
        exactly the values the per-``r`` loop kernel would.
        """
        ends = np.asarray(ends)
        if len(starts) == 0 or len(ends) == 0:
            return np.zeros((len(starts), len(ends)))
        return np.stack(
            [self.score_ends(trendline, int(l), ends, context) for l in starts]
        )

    # -- pruning bounds (Table 7) ---------------------------------------------
    def window_bounds(
        self, trendline: Trendline, window: int
    ) -> Tuple[float, float]:
        """(lower, upper) bound on this unit's final score, from a grid of
        ``window``-bin segments (Theorem 6.4); conservative default."""
        return (-1.0, 1.0)


class SlopeUnit(CompiledUnit):
    """up / down / flat / θ / any / empty — pure functions of the fitted slope."""

    vectorized = True
    slope_based = True

    def __init__(
        self,
        kind: str,
        theta: Optional[float] = None,
        location: Location = FREE_LOCATION,
        negated: bool = False,
        seg_index: int = -1,
    ):
        self.kind = kind
        self.theta = theta
        self.location = location
        self.negated = negated
        self.seg_index = seg_index

    def __repr__(self):
        label = self.kind if self.theta is None else "θ={}".format(self.theta)
        return "SlopeUnit({}{})".format("!" if self.negated else "", label)

    def _from_slopes(self, slopes):
        return self._signed(scoring.pattern_score(self.kind, slopes, self.theta))

    def score_from_atan(self, atan):
        """Table 5 score from ``math.atan(slope)`` — one float or an array
        of them, op for op the same, so the columnar final pass has the
        scalar path's bits (``any``/``empty`` return a plain float)."""
        kind = self.kind
        if kind == "up":
            value = 2.0 * atan / math.pi
        elif kind == "down":
            value = -2.0 * atan / math.pi
        elif kind == "flat":
            value = 1.0 - abs(4.0 * atan / math.pi)
        elif kind == "slope":
            target = math.radians(self.theta)
            deviation = abs(atan - target)
            value = 1.0 - 2.0 * deviation / (math.pi / 2.0 + abs(target))
        elif kind == "any":
            value = 1.0
        else:  # empty
            value = -1.0
        return -value if self.negated else value

    def score(self, trendline, l, r, context=None):
        return self.score_with_slope(trendline, l, r)

    def score_with_slope(self, trendline, l, r, slope=None, context=None):
        """Scalar score, optionally with an already-fitted ``slope``.

        The single copy of the scalar feasibility-then-score rule:
        :meth:`score` routes through it, and callers that already fitted
        the slope (the final pass, the push-down eager bound) pass theirs
        in — so the paths cannot drift apart.
        """
        if r - l < MIN_SEGMENT_BINS or not self._y_feasible(trendline, l, r):
            return INFEASIBLE
        if slope is None:
            slope = trendline.prefix.slope(l, r)
        return self.score_from_atan(math.atan(slope))

    def score_ends(self, trendline, l, rs, context=None):
        rs = np.asarray(rs)
        slopes = trendline.prefix.slopes_for_ends(l, rs)
        values = self._from_slopes(slopes)
        values = np.where(rs - l < MIN_SEGMENT_BINS, INFEASIBLE, values)
        return self._apply_y_mask(trendline, np.full(len(rs), l), rs, values)

    def score_starts(self, trendline, ls, r, context=None):
        ls = np.asarray(ls)
        slopes = trendline.prefix.slopes_for_starts(ls, r)
        values = self._from_slopes(slopes)
        values = np.where(r - ls < MIN_SEGMENT_BINS, INFEASIBLE, values)
        return self._apply_y_mask(trendline, ls, np.full(len(ls), r), values)

    def score_pairs(self, trendline, starts, ends, context=None):
        starts = np.asarray(starts)
        ends = np.asarray(ends)
        slopes = trendline.prefix.slopes_pairs(starts, ends)
        values = self._from_slopes(slopes)
        values = np.where(ends - starts < MIN_SEGMENT_BINS, INFEASIBLE, values)
        return self._apply_y_mask(trendline, starts, ends, values)

    def score_matrix(self, trendline, starts, ends, context=None):
        starts = np.asarray(starts)
        ends = np.asarray(ends)
        return self.score_matrix_from_slopes(
            trendline, starts, ends, trendline.prefix.slope_matrix(starts, ends), context
        )

    def tile_transform(self, atans, memo=None):
        """Table 5 transform over shared ``tan⁻¹(slope)`` values, memoized.

        ``memo`` (one dict per DP tile) lets every slope-based layer of a
        chain share one transform per distinct ``(kind, θ)``: ``down`` is
        folded onto ``up`` (its exact negation — unary minus flips only
        the sign bit, so the fold is bitwise), and OPPOSITE flips once
        more.  Memoized arrays are never mutated: every consumer masks
        via ``np.where``/fresh allocations, so sharing is safe.  The
        transform is elementwise, so callers slice the result to their
        layer's feasible subrectangle and get the exact bits the
        per-layer path would have produced.
        """
        kind, flip = self.kind, self.negated
        if kind == "down":  # down ≡ −up, bit for bit
            kind, flip = "up", not flip
        key = (kind, self.theta)
        base = memo.get(key) if memo is not None else None
        if base is None:
            base = scoring.pattern_score_from_atan(kind, atans, self.theta)
            if memo is not None:
                memo[key] = base
        return -base if flip else base

    def score_matrix_from_values(self, trendline, starts, ends, values):
        """Mask an already-transformed score matrix (width + y feasibility).

        The tail of :meth:`score_matrix_from_slopes` split out so the
        matrix DP kernel can feed it a slice of a tile-shared
        :meth:`tile_transform`; ``values`` is never written (``np.where``
        allocates), so shared transforms stay intact.
        """
        starts = np.asarray(starts)
        ends = np.asarray(ends)
        lengths = ends[None, :] - starts[:, None]
        values = np.where(lengths < MIN_SEGMENT_BINS, INFEASIBLE, values)
        return self._apply_y_mask(trendline, starts[:, None], ends[None, :], values)

    def score_matrix_from_slopes(self, trendline, starts, ends, slopes, context=None):
        """Score a precomputed ``starts × ends`` slope matrix.

        The matrix DP kernel computes one slope matrix per tile and
        shares it across every slope-based layer; this applies the
        unit's Table 5 transform plus the width/y feasibility masks —
        the exact operations :meth:`score_matrix` performs after its own
        slope computation, so shared and private paths agree bit for bit.
        (The tile-shared arctan path — see
        :data:`repro.engine.dynamic.SHARE_ATAN` — instead feeds
        :meth:`tile_transform` output into
        :meth:`score_matrix_from_values`.)
        """
        return self.score_matrix_from_values(
            trendline, starts, ends, self._from_slopes(slopes)
        )

    def _apply_y_mask(self, trendline, ls, rs, values):
        """Mask y.s/y.e-infeasible ranges to INFEASIBLE.

        ``ls``/``rs`` may be any shapes that broadcast to ``values`` —
        paired vectors (row/column/pairs paths) or a column/row pair
        (the matrix path) — so every vectorized entry point shares this
        one copy of the tolerance rule.
        """
        loc = self.location
        if loc.y_start is None and loc.y_end is None:
            return values
        span = float(trendline.y.max() - trendline.y.min()) or 1.0
        tolerance = Y_TOLERANCE * span
        feasible = np.ones(values.shape, dtype=bool)
        if loc.y_start is not None:
            feasible = feasible & (np.abs(trendline.bin_y[ls] - loc.y_start) <= tolerance)
        if loc.y_end is not None:
            feasible = feasible & (np.abs(trendline.bin_y[rs - 1] - loc.y_end) <= tolerance)
        return np.where(feasible, values, INFEASIBLE)

    #: Safety margin added to Table 7 bounds.  The paper's triangle-law
    #: argument is exact for chord (endpoint) slopes; a *regression* slope
    #: of a union can exceed the per-node extremes slightly when node
    #: means disagree (two flat nodes at different levels fit a sloped
    #: line), so the bounds are widened before being used for pruning.
    BOUNDS_MARGIN = 0.05

    def bounds_from_slopes(self, slopes: np.ndarray) -> Tuple[float, float]:
        """Table 7 score bounds given the fitted slopes of a level's nodes.

        The unit's final segment is a contiguous union of those nodes, so
        its fitted slope is (approximately) a convex combination of
        theirs; for up/down the score is monotone in the slope, and for
        flat/θ=x the score can additionally peak at 1 when the node
        slopes straddle the target (Theorem 6.4).
        """
        if self.kind in ("any", "empty"):
            value = 1.0 if self.kind == "any" else -1.0
            value = -value if self.negated else value
            return (value, value)
        scores = self._from_slopes(slopes)
        lower, upper = float(scores.min()), float(scores.max())
        target = 0.0 if self.kind == "flat" else (
            math.tan(math.radians(self.theta)) if self.kind == "slope" else None
        )
        if target is not None and float(slopes.min()) < target < float(slopes.max()):
            if self.negated:
                lower = -1.0
            else:
                upper = 1.0
        if self.location.y_start is not None or self.location.y_end is not None:
            lower = -1.0
        lower = max(-1.0, lower - self.BOUNDS_MARGIN)
        upper = min(1.0, upper + self.BOUNDS_MARGIN)
        return (lower, upper)

    def window_bounds(self, trendline, window):
        n = trendline.n_bins
        if n < MIN_SEGMENT_BINS:
            return (-1.0, 1.0)
        starts = np.arange(0, max(1, n - MIN_SEGMENT_BINS + 1), window)
        ends = np.minimum(np.maximum(starts + window, starts + MIN_SEGMENT_BINS), n)
        valid = ends - starts >= MIN_SEGMENT_BINS
        if not valid.any():
            return (-1.0, 1.0)
        slopes = trendline.prefix.slopes_pairs(starts[valid], ends[valid])
        return self.bounds_from_slopes(np.asarray(slopes))


def plain_slope(unit: CompiledUnit) -> bool:
    """A slope pattern with no y constraint: a pure function of the fitted
    slope, which the batched kernels gather for a whole block at once."""
    loc = unit.location
    return unit.slope_based and loc.y_start is None and loc.y_end is None


class LineUnit(CompiledUnit):
    """A bare-location segment: match the straight line (y.s → y.e) (§3.1).

    Scoring is closed-form over the trendline's line-fit prefix sums
    (:meth:`Trendline.line_prefix`): with the reference line
    ``ref_i = a + b·i`` over the ``m`` bins of ``[l, r)``, the RMSE
    against the normalized bin values decomposes into
    ``Σy² − 2(aΣy + bΣi·y) + Σref²`` — all range sums — so the same
    O(1)-per-range expression serves the scalar path and the DP matrix
    kernel, and both produce bit-identical values.
    """

    vectorized = True

    def __init__(self, location: Location, negated: bool = False, seg_index: int = -1):
        self.location = location
        self.negated = negated
        self.seg_index = seg_index

    def __repr__(self):
        return "LineUnit(y {}→{})".format(self.location.y_start, self.location.y_end)

    def _line_values(self, trendline, ls, rs):
        """Signed line-match scores of ``[ls, rs)`` (broadcastable arrays).

        Ranges narrower than :data:`MIN_SEGMENT_BINS` come out INFEASIBLE;
        every operation is elementwise, so any combination of scalar,
        paired and cross-product shapes yields the same per-range bits.
        """
        ls = np.asarray(ls)
        rs = np.asarray(rs)
        sum_y, sum_yy, sum_iy = trendline.line_prefix()
        widths = rs - ls
        # Masked-out (too narrow / inverted) ranges still flow through the
        # arithmetic: substitute a safe width so no division blows up.
        count = np.maximum(widths, MIN_SEGMENT_BINS).astype(float)
        loc = self.location
        if loc.y_start is not None:
            nys = trendline.normalize_y_value(loc.y_start)
        else:
            nys = trendline.norm_bin_y[ls]
        if loc.y_end is not None:
            nye = trendline.normalize_y_value(loc.y_end)
        else:
            nye = trendline.norm_bin_y[rs - 1]
        slope = (nye - nys) / (count - 1.0)
        sum_i = (count - 1.0) * count / 2.0
        sum_ii = (count - 1.0) * count * (2.0 * count - 1.0) / 6.0
        seg_y = sum_y[rs] - sum_y[ls]
        seg_yy = sum_yy[rs] - sum_yy[ls]
        seg_iy = (sum_iy[rs] - sum_iy[ls]) - ls * seg_y
        sum_ref2 = nys * nys * count + 2.0 * nys * slope * sum_i + slope * slope * sum_ii
        sum_cross = nys * seg_y + slope * seg_iy
        mse = (seg_yy - 2.0 * sum_cross + sum_ref2) / count
        rmse = np.sqrt(np.maximum(mse, 0.0))
        value = (
            1.0
            - 2.0 * np.minimum(rmse, scoring.SKETCH_RMSE_CAP) / scoring.SKETCH_RMSE_CAP
        )
        return np.where(widths < MIN_SEGMENT_BINS, INFEASIBLE, self._signed(value))

    def score(self, trendline, l, r, context=None):
        if r - l < MIN_SEGMENT_BINS:
            return INFEASIBLE
        return float(self._line_values(trendline, np.intp(l), np.intp(r)))

    def score_ends(self, trendline, l, rs, context=None):
        rs = np.asarray(rs)
        return self._line_values(trendline, np.full(len(rs), l, dtype=np.intp), rs)

    def score_starts(self, trendline, ls, r, context=None):
        ls = np.asarray(ls)
        return self._line_values(trendline, ls, np.full(len(ls), r, dtype=np.intp))

    def score_pairs(self, trendline, starts, ends, context=None):
        return self._line_values(trendline, np.asarray(starts), np.asarray(ends))

    def score_matrix(self, trendline, starts, ends, context=None):
        return self._line_values(
            trendline, np.asarray(starts)[:, None], np.asarray(ends)[None, :]
        )


class QuantifierUnit(CompiledUnit):
    """A pattern with an occurrence quantifier (``m={low,high}``, §5.2)."""

    def __init__(
        self,
        kind: str,
        quantifier: Quantifier,
        theta: Optional[float] = None,
        udp_name: Optional[str] = None,
        location: Location = FREE_LOCATION,
        negated: bool = False,
        seg_index: int = -1,
        positive_threshold: Optional[float] = None,
    ):
        self.kind = kind
        self.theta = theta
        self.udp_name = udp_name
        self.quantifier = quantifier
        self.location = location
        self.negated = negated
        self.seg_index = seg_index
        #: Occurrence floor override (None = the module default, 0.3);
        #: set at compile time from the engine's quantifier_threshold so
        #: it travels with the compiled query into process workers.
        self.positive_threshold = positive_threshold

    def __repr__(self):
        return "QuantifierUnit({} x{})".format(self.udp_name or self.kind, self.quantifier)

    @staticmethod
    def _classified_runs(trendline, l, r, min_points, context):
        """Segment runs, memoized per trendline in the solve context.

        Run classification is a pure function of ``(trendline, l, r,
        min_points)`` but is recomputed for every candidate segment the
        DP/SegmentTree visits; the solve context carries one memo dict
        (created by :func:`repro.engine.dynamic.solve_query`) keyed on
        trendline identity plus the range, so re-scored ranges — final
        passes, shared units across alternative chains, SegmentTree
        merges — pay the run scan once.
        """
        if not isinstance(context, dict):
            return scoring.classified_runs(
                trendline.norm_bin_y[l:r], min_points=min_points
            )
        memo = context.get(RUNS_MEMO_KEY)
        if memo is None:
            memo = context[RUNS_MEMO_KEY] = {}
        key = (id(trendline), l, r, min_points)
        runs = memo.get(key)
        if runs is None:
            runs = scoring.classified_runs(
                trendline.norm_bin_y[l:r], min_points=min_points
            )
            if len(memo) >= RUNS_MEMO_CAP:
                memo.pop(next(iter(memo)))
            memo[key] = runs
        return runs

    def _wanted_class(self):
        """Run direction that counts as an occurrence; None = any run."""
        if self.kind == "up":
            return 1
        if self.kind == "down":
            return -1
        if self.kind == "flat":
            return 0
        if self.kind == "slope":
            if self.theta > 0:
                return 1
            if self.theta < 0:
                return -1
            return 0
        return None  # udp: every run is a candidate

    def score(self, trendline, l, r, context=None):
        if r - l < MIN_SEGMENT_BINS or not self._y_feasible(trendline, l, r):
            return INFEASIBLE
        values = trendline.norm_bin_y[l:r]
        min_points = max(2, (r - l) // 20)
        runs = self._classified_runs(trendline, l, r, min_points, context)
        wanted = self._wanted_class()
        run_scores = []
        for a, b, cls in runs:
            if wanted is not None and cls != wanted:
                continue
            slope = trendline.prefix.slope(l + a, l + b)
            if self.udp_name is not None:
                function = scoring.get_udp(self.udp_name)
                run_scores.append(float(function(values[a:b], slope)))
            else:
                run_scores.append(float(scoring.pattern_score(self.kind, slope, self.theta)))
        threshold = self.positive_threshold
        if threshold is None:
            threshold = scoring.QUANTIFIER_POSITIVE_THRESHOLD
        return self._signed(
            scoring.quantifier_score(
                self.quantifier, run_scores, positive_threshold=threshold
            )
        )


class PositionUnit(CompiledUnit):
    """``p=$i`` — compare this segment's slope to segment i's (two-pass)."""

    has_position = True

    def __init__(
        self,
        reference_index: int,
        comparison: Optional[str],
        factor: Optional[float] = None,
        location: Location = FREE_LOCATION,
        negated: bool = False,
        seg_index: int = -1,
    ):
        self.reference_index = reference_index
        self.comparison = comparison
        self.factor = factor
        self.location = location
        self.negated = negated
        self.seg_index = seg_index

    def __repr__(self):
        return "PositionUnit(${} {})".format(self.reference_index, self.comparison or "=")

    def score(self, trendline, l, r, context=None):
        if r - l < MIN_SEGMENT_BINS or not self._y_feasible(trendline, l, r):
            return INFEASIBLE
        if context is None or self.reference_index not in context:
            # Pass 1: the reference is not yet placed; stay neutral so the
            # surrounding units drive the segmentation.
            return 0.0
        slope = trendline.prefix.slope(l, r)
        value = scoring.position_score(
            slope, context[self.reference_index], self.comparison, self.factor
        )
        return self._signed(value)


class SketchUnit(CompiledUnit):
    """``v=(x:y,...)`` — precise matching against a drawn polyline."""

    def __init__(self, sketch, location: Location = FREE_LOCATION, negated: bool = False, seg_index: int = -1):
        self.sketch = sketch
        self.location = location
        self.negated = negated
        self.seg_index = seg_index

    def __repr__(self):
        return "SketchUnit({} pts)".format(len(self.sketch))

    def score(self, trendline, l, r, context=None):
        if r - l < MIN_SEGMENT_BINS or not self._y_feasible(trendline, l, r):
            return INFEASIBLE
        return self._signed(
            scoring.sketch_score(trendline.segment_values(l, r), np.asarray(self.sketch.ys()))
        )


class UdpUnit(CompiledUnit):
    """``p=udp:name`` — a registered user-defined pattern (black box)."""

    def __init__(self, name: str, location: Location = FREE_LOCATION, negated: bool = False, seg_index: int = -1):
        self.name = name
        self.location = location
        self.negated = negated
        self.seg_index = seg_index

    def __repr__(self):
        return "UdpUnit({})".format(self.name)

    def score(self, trendline, l, r, context=None):
        if r - l < MIN_SEGMENT_BINS or not self._y_feasible(trendline, l, r):
            return INFEASIBLE
        function = scoring.get_udp(self.name)
        value = float(
            function(trendline.segment_values(l, r), trendline.prefix.slope(l, r))
        )
        return self._signed(float(np.clip(value, -1.0, 1.0)))


class NestedUnit(CompiledUnit):
    """``p=[...]`` — a full sub-query matched within the allotted region."""

    def __init__(self, compiled_query, location: Location = FREE_LOCATION, negated: bool = False, seg_index: int = -1):
        self.compiled_query = compiled_query
        self.location = location
        self.negated = negated
        self.seg_index = seg_index

    def __repr__(self):
        return "NestedUnit({} chains)".format(len(self.compiled_query.chains))

    def score(self, trendline, l, r, context=None):
        if r - l < MIN_SEGMENT_BINS or not self._y_feasible(trendline, l, r):
            return INFEASIBLE
        from repro.engine.dynamic import KERNEL_KEY, solve_query_over_range

        # Forward only the solve-scoped auxiliaries: the nested query has
        # its own segment-index space, so the outer slope context must
        # not leak in, but the kernel choice and the per-trendline runs
        # memo are index-free and should survive the boundary.
        inner_context = {}
        if isinstance(context, dict):
            for key in (KERNEL_KEY, RUNS_MEMO_KEY):
                if key in context:
                    inner_context[key] = context[key]
        result = solve_query_over_range(
            trendline, self.compiled_query, l, r, context=inner_context
        )
        return self._signed(result.score)


class WindowUnit(CompiledUnit):
    """ITERATOR: best fixed-width window of the wrapped unit (``x.e=.+w``)."""

    def __init__(self, base: CompiledUnit, width: float, location: Location = FREE_LOCATION):
        self.base = base
        self.width = width
        self.location = location
        self.seg_index = base.seg_index
        self.negated = False  # negation lives on the base unit
        self.has_position = base.has_position

    def __repr__(self):
        return "WindowUnit({!r}, w={})".format(self.base, self.width)

    def window_bins(self, trendline: Trendline) -> int:
        """Window width converted from raw x units to a bin count."""
        spacing = float(np.mean(np.diff(trendline.bin_x))) or 1.0
        return max(MIN_SEGMENT_BINS, int(round(self.width / spacing)))

    def score(self, trendline, l, r, context=None):
        w = self.window_bins(trendline)
        if r - l < w:
            return INFEASIBLE
        starts = np.arange(l, r - w + 1)
        values = self.base.score_pairs(trendline, starts, starts + w, context)
        return float(values.max())


class AndUnit(CompiledUnit):
    """AND (⊙): every branch must match the same region; score = min.

    Each branch is a list of alternative chains (OR inside AND); a branch
    containing CONCAT is fitted to cover exactly ``[l, r)`` with an
    exact-cover DP.
    """

    def __init__(self, branches: List[List["Chain"]], location: Location = FREE_LOCATION):
        self.branches = branches
        self.location = location

    def __repr__(self):
        return "AndUnit({} branches)".format(len(self.branches))

    @property
    def has_position(self):
        return any(
            unit.unit.has_position
            for branch in self.branches
            for chain in branch
            for unit in chain.units
        )

    def score(self, trendline, l, r, context=None):
        if r - l < MIN_SEGMENT_BINS:
            return INFEASIBLE
        from repro.engine.dynamic import solve_chain_exact_cover

        branch_scores = []
        for branch in self.branches:
            best = INFEASIBLE
            for chain in branch:
                if len(chain.units) == 1:
                    value = chain.units[0].unit.score(trendline, l, r, context)
                else:
                    value = solve_chain_exact_cover(trendline, chain, l, r, context).score
                best = max(best, value)
            branch_scores.append(best)
        return scoring.and_scores(branch_scores)
