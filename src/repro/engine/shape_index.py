"""Persistent multi-resolution shape index for sublinear top-k (ROADMAP).

Every rank path used to score every candidate trendline — the paper's
§6.2/§6.3 machinery bounds one trendline at a time, so top-k latency is
linear in collection size even though most candidates can never enter
the top k.  This module inverts that structure into a *collection-level*
index:

* Per trendline, a **pyramid of position buckets**: at each level the
  bins are cut into ``W`` super-bins of width ``w`` and every bucket
  ``(a, b)`` summarizes the min/max ``tan⁻¹(fitted slope)`` over *all*
  segments ``[l, r)`` with ``l`` in super-bin ``a``, ``r−1`` in
  super-bin ``b`` and at least :data:`~repro.engine.units.MIN_SEGMENT_BINS`
  bins — computed for all trendlines of one length at once, in one
  vectorized pass per start super-bin over their stacked prefix rows
  (:func:`~repro.engine.statistics.fit_slopes`, the formula behind
  :meth:`~repro.engine.statistics.PrefixStats.slope_matrix`).  Coarser
  levels double ``w``; because ``floor(l / 2w) = floor(floor(l / w) / 2)``
  they derive *exactly* from the finer level by pairwise min/max
  combines, so the whole pyramid costs one O(n²) sweep, written
  straight into the packed block the queries read.  A bucket can only
  hold a segment when ``a ≤ b``, so each level keeps just the row-major
  upper triangle, ``W(W+1)/2`` buckets per side (:func:`_triangle`).

* Per query, a **coarse max-plus DP over the buckets**: for chains whose
  units are all statically bounded (the
  :func:`~repro.engine.pushdown.chain_statically_bounded` gate shared
  with ``eager_upper_bound``), each unit's Table 5 score over a bucket
  is bounded by its value at the bucket's atan endpoints — the same
  endpoint-extreme + flat/θ straddle reasoning as
  :meth:`SlopeUnit.bounds_from_slopes <repro.engine.units.SlopeUnit.bounds_from_slopes>`
  and the §6.3 level bounds (``benchmarks/paper/bounds.py``), but
  *without* the regression-slack margin: a bucket's interval covers the
  fitted atan of every admissible segment exactly (the segment itself is
  one of the aggregated ranges, fitted by the same bit-identical
  ``fit_slopes`` algebra), not a blend of node slopes.  A
  max-plus recurrence over (start super-bin, end super-bin) then bounds
  the best full segmentation; the query bound is the max over chains,
  min over levels, clamped to the score range at −1.

**Soundness** (what makes index-pruned runs byte-identical): every
engine algorithm places each chain as a full cover of ``[0, n)`` whose
interior units are at least ``run_min_length(0, n, m)`` bins wide and
whose first and last unit are at least one SegmentTree leaf wide (the
dp/loop and greedy solvers hold the end units to the full floor as
well; the tree does not — :func:`_unit_widths`), so any true
placement maps to a bucket path the coarse DP admits — consecutive
units share their boundary bin, so the next start super-bin is the
previous end super-bin or its successor — and every per-unit score is ≤
its bucket bound (y-location masks only *lower* scores).  Infeasible
chains score :data:`~repro.engine.units.INFEASIBLE` = −1, which the −1
clamp covers.  A candidate is discarded only when its bound is
**strictly below** the running top-k floor (the k-th best of the
candidates solved exactly so far — :class:`BoundFrontier`), so its true
score is strictly below at least k other candidates' and it cannot
appear in the top k under any tie-break; solved candidates keep their
positions, so the *(score desc, position asc)* shard order — and the
key-based presentation order — select exactly the unindexed run's
matches.

Pruning decisions route through one seam — :func:`survives_floor` —
enforced by reprolint rule REP061: no ad-hoc floor thresholds.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.table import canonical_group_key
from repro.engine import scoring
from repro.engine.chains import Chain, CompiledQuery
from repro.engine.collection import Collection
from repro.engine.statistics import fit_slopes
from repro.engine.trendline import Trendline
from repro.engine.units import (
    INFEASIBLE,
    MIN_SEGMENT_BINS,
    SlopeUnit,
    default_leaf_size,
    run_min_length,
)

#: Target super-bin count of the finest pyramid level.  32² buckets keep
#: the per-candidate query work trivial (a few (32, 32) array ops per
#: unit) while still resolving where in the trendline a pattern can live.
MAX_SUPER_BINS = 32

#: Coarsening stops once a level would have fewer super-bins than this;
#: trendlines too short to host even the coarsest level are left
#: unindexed (their entry is None — never pruned, trivially exact).
MIN_SUPER_BINS = 4

_NEG_INF = -np.inf
_POS_INF = np.inf


def survives_floor(upper_bounds, floor):
    """THE top-k floor seam: may these bounds still reach the floor?

    Every index pruning decision — scalar or vectorized — is this single
    comparison: a candidate survives iff its upper bound is ≥ the
    running top-k floor, i.e. discards are *strict* ``upper < floor``.
    Strictness is what makes pruning exact under ties: a candidate tied
    with the floor always survives and competes under the normal
    tie-break order.  Centralizing the comparison here (reprolint
    REP061) keeps the discard rule from drifting into ad-hoc thresholds.

    Vectorized inputs of any shape are fine, including the empty
    candidate vector: ``survives_floor(np.zeros(0), floor)`` is an empty
    boolean array — no candidates, no verdicts — so callers iterating
    the verdict never special-case an empty collection.
    """
    return np.greater_equal(upper_bounds, floor)


def is_prunable(query: CompiledQuery) -> bool:
    """Is the query fully fuzzy — no x pins, no iterators (paper §6)?

    The shape both the shape index and the paper's §6.3 collective
    driver (``benchmarks/paper/pruning.py``) can bound: pinned layouts
    change the DP's piece structure.
    """
    return all(
        not cu.unit.location.is_x_pinned and cu.unit.location.iterator is None
        for chain in query.chains
        for cu in chain.units
    )


def index_supports(query: CompiledQuery) -> bool:
    """Can the shape index bound this query? (else: full-scan fallback)

    Requires a fully fuzzy query (:func:`is_prunable`), every chain statically bounded (the
    :func:`~repro.engine.pushdown.chain_statically_bounded` gate shared
    with the eager push-down bound), and at least one directional /
    slope-target unit somewhere — a query of only ``any``/line units
    bounds every candidate at 1.0, so the planner skips the stage
    rather than running a vacuous one.
    """
    from repro.engine.pushdown import chain_statically_bounded

    if not is_prunable(query):
        return False
    directional = False
    for chain in query.chains:
        if not chain_statically_bounded(chain):
            return False
        for cu in chain.units:
            if isinstance(cu.unit, SlopeUnit) and cu.unit.kind in (
                "up", "down", "flat", "slope"
            ):
                directional = True
    return directional


# ---------------------------------------------------------------------------
# Build: one vectorized sweep per length class, into the packed block
# ---------------------------------------------------------------------------

#: Most tile elements one kernel pass may hold — slope tiles (candidates
#: × start rows × end columns) in a build, bucket triangles (candidates
#: × W(W+1)/2; 124 candidates at the finest level, W = 32) in a bound
#: pass.  A length class is swept in blocks of as many candidates as fit
#: (one at least), so a build peaks at the packed block plus a few tiles
#: of this size and a query's temporaries at a few such tiles, whatever
#: the collection's; half-MB tiles also stay cache-resident.
BLOCK_ELEMENTS = 1 << 16


class TrendlineEntry:
    """One trendline's pyramid: ``(w, atan min, atan max)`` per level.

    ``levels`` runs fine → coarse; queries iterate it reversed.  Bucket
    matrices are dense ``(W, W)`` copies of an index's packed triangles
    (made on the first read of :attr:`ShapeIndex.entries`, the only way
    to reach an entry), with ``+inf``/``−inf`` sentinels marking buckets
    that contain no admissible segment — every bucket below the diagonal
    among them.  ``witness`` identifies the exact bits the entry was
    built from (canonical group key, bin count, prefix digest) so
    :meth:`ShapeIndex.extended` can reuse it only when reuse is bitwise
    free.
    """

    __slots__ = ("n_bins", "levels", "witness")

    def __init__(self, n_bins: int,
                 levels: Optional[List[Tuple[int, np.ndarray, np.ndarray]]],
                 witness: Optional[tuple]):
        self.n_bins = n_bins
        self.levels = levels
        self.witness = witness


def _level_shapes(n_bins: int) -> List[Tuple[int, int]]:
    """``(w, W)`` of every pyramid level, fine → coarse.

    Empty for a trendline too short to host even one level; it stays
    unindexed (entry None — never pruned, trivially exact).
    """
    w = max(MIN_SEGMENT_BINS, -(-n_bins // MAX_SUPER_BINS))
    W = -(-n_bins // w)
    shapes = []
    while W >= MIN_SUPER_BINS:
        shapes.append((w, W))
        w, W = w * 2, (W + 1) // 2
    return shapes


def _super_bins(n_bins: int, w: int) -> int:
    """``W`` of an ``n_bins`` pyramid's level of width ``w``: ⌈n_bins / w⌉.

    Exact at every level of :func:`_level_shapes`, since
    ⌈⌈n / w⌉ / 2⌉ = ⌈n / 2w⌉.
    """
    return -(-n_bins // w)


@lru_cache(maxsize=None)
def _triangle(W: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, starts)`` of a ``W``-super-bin level's packed triangle.

    A level stores bucket ``(a, b)``, ``a ≤ b``, at ``starts[a] + b − a``:
    row ``a``'s buckets are one contiguous run ``[starts[a],
    starts[a + 1])`` and ``starts[W] = W(W+1)/2``.  ``rows``/``cols``
    are the ``(a, b)`` of each packed position (``np.triu_indices``
    order).  Read-only, shared by every caller.
    """
    rows, cols = np.triu_indices(W)
    starts = np.concatenate(([0], np.cumsum(np.arange(W, 0, -1))))
    for array in (rows, cols, starts):
        array.flags.writeable = False
    return rows, cols, starts


def _dense(tri: np.ndarray, W: int, fill: float) -> np.ndarray:
    """``(C, W, W)`` copy of a ``(C, W(W+1)/2)`` triangle, ``fill`` below it."""
    rows, cols, _starts = _triangle(W)
    dense = np.full((tri.shape[0], W, W), fill)
    dense[:, rows, cols] = tri
    return dense


def _prefix_rows(trendlines: Sequence[Trendline], positions, n_bins: int) -> np.ndarray:
    """Equal-length trendlines' cumulative statistics, ``(5, C, n + 1)``.

    A :class:`~repro.engine.collection.Collection` gathers them from its
    wide prefix block in one pass; any other sequence stacks the
    per-trendline blocks.  The dtype is the trendlines' own (a
    ``precision="float32"`` cast stays float32).
    """
    if isinstance(trendlines, Collection):
        return trendlines.prefix_rows(positions, n_bins)
    prefixes = [trendlines[position].prefix for position in positions]
    return np.stack(
        [
            p.stacked if p.stacked is not None
            else np.stack([p.count, p.sx, p.sy, p.sxy, p.sxx])
            for p in prefixes
        ],
        axis=1,
    )


def _prefix_digests(stack: np.ndarray) -> List[str]:
    """Content digest of each candidate's ``(5, n + 1)`` cumulative block.

    The index is a pure function of these bits (every bucket aggregates
    :func:`~repro.engine.statistics.fit_slopes` outputs), so two
    trendlines with equal digests build bitwise-equal entries — the
    reuse gate of :meth:`ShapeIndex.extended`.  Each block is digested
    C-contiguous, rows in
    :data:`~repro.engine.statistics.PrefixStats.STACKED_ROWS` order,
    followed by its dtype name.
    """
    dtype = str(stack.dtype).encode("ascii")
    digests = []
    for block in np.ascontiguousarray(stack.transpose(1, 0, 2)):
        digest = hashlib.sha1(block)
        digest.update(dtype)
        digests.append(digest.hexdigest())
    return digests


def _slope_buckets(stack: np.ndarray, w: int, W: int) -> Tuple[np.ndarray, np.ndarray]:
    """Min/max fitted slope per (start super-bin, end super-bin) bucket.

    ``stack`` is ``(5, C, n + 1)``; returns two ``(C, W(W+1)/2)``
    triangles (:func:`_triangle`).  One pass per start super-bin ``a``
    over all ``C`` candidates and only the end bins that super-bin can
    reach: the ≤ w start rows against every end from
    ``MIN_SEGMENT_BINS`` past the first start, fitted by
    :func:`~repro.engine.statistics.fit_slopes` in the prefix dtype and
    widened afterwards (as ``PrefixStats.slope_matrix`` callers see
    them), the too-short corner masked, reduced over the start rows and
    then ``reduceat`` over the end super-bins ``a..W−1`` — row ``a`` of
    the triangle.  Min and max do not depend on the order they visit a
    bucket's segments in, so every bucket is the float a one-trendline
    sweep produces.
    """
    count, n = stack.shape[1], stack.shape[2] - 1
    starts = _triangle(W)[2]
    bucket_min = np.full((count, starts[W]), _POS_INF)
    bucket_max = np.full((count, starts[W]), _NEG_INF)
    for a in range(W):
        s0, s1 = a * w, min((a + 1) * w, n)
        e0 = s0 + MIN_SEGMENT_BINS
        if e0 > n:
            break
        slopes = fit_slopes(*(stack[:, :, None, e0:] - stack[:, :, s0:s1, None]))
        slopes = slopes.astype(float, copy=False)
        # Start s0 + j reaches ends from e0 + j on: rows below the
        # diagonal of the leading columns are narrower than a segment.
        late, early = np.tril_indices(s1 - s0, -1, n + 1 - e0)
        # End bin r lies in super-bin (r − 1) // w; column 0 is end e0,
        # inside super-bin ``a`` because w ≥ MIN_SEGMENT_BINS.
        cuts = np.arange(a, W) * w + 1 - e0
        cuts[0] = 0
        row = slice(starts[a], starts[a + 1])
        slopes[:, late, early] = _POS_INF
        bucket_min[:, row] = np.minimum.reduceat(slopes.min(axis=1), cuts, axis=1)
        slopes[:, late, early] = _NEG_INF
        bucket_max[:, row] = np.maximum.reduceat(slopes.max(axis=1), cuts, axis=1)
    return bucket_min, bucket_max


def _pair_combine(tri: np.ndarray, W: int, fill: float, op) -> np.ndarray:
    """Exact one-level coarsening of a ``(C, W(W+1)/2)`` triangle.

    Coarse bucket ``(A, B)`` is the 2×2 ``op`` reduce of fine rows
    ``2A, 2A+1`` × columns ``2B, 2B+1``: rows first, then column pairs,
    with ``fill`` for the one corner below the diagonal and for the row
    and column past an odd ``W`` — the operands and order of a
    sentinel-padded dense reduce, so every float is the same.
    """
    fine = _triangle(W)[2]
    half = (W + 1) // 2
    coarse = _triangle(half)[2]
    out = np.empty((tri.shape[0], coarse[half]))
    for A in range(half):
        a = 2 * A
        pair = np.full((2, tri.shape[0], 2 * (half - A)), fill)
        pair[0, :, :W - a] = tri[:, fine[a]:fine[a + 1]]
        if a + 1 < W:
            pair[1, :, 1:W - a] = tri[:, fine[a + 1]:fine[a + 2]]
        rows = op(pair[0], pair[1])
        out[:, coarse[A]:coarse[A + 1]] = op(rows[:, 0::2], rows[:, 1::2])
    return out


def _atan_buckets(bucket_min: np.ndarray, bucket_max: np.ndarray):
    """Slope extremes → atan extremes, preserving the ±inf empty sentinels.

    ``arctan`` is (weakly) monotone, including under IEEE rounding, so
    the atan of the bucket's slope extremes bounds the atan of every
    aggregated segment's slope — which is what the Table 5 transforms
    consume.
    """
    empty = ~np.isfinite(bucket_min)
    amin = np.where(empty, _POS_INF, np.arctan(np.where(empty, 0.0, bucket_min)))
    amax = np.where(empty, _NEG_INF, np.arctan(np.where(empty, 0.0, bucket_max)))
    return amin, amax


def _summarize(stack: np.ndarray, tiles: list, rows: np.ndarray) -> None:
    """Write the candidates' pyramids into ``rows`` of their class's tiles.

    The finest level comes from :func:`_slope_buckets`; each coarser one
    derives exactly from the finer by pairwise min/max, since
    ``floor(l / 2w) = floor(floor(l / w) / 2)``.
    """
    W = _super_bins(stack.shape[2] - 1, tiles[0][0])
    bucket_min, bucket_max = _slope_buckets(stack, tiles[0][0], W)
    for depth, (_w, amin, amax) in enumerate(tiles):
        if depth:
            bucket_min = _pair_combine(bucket_min, W, _POS_INF, np.minimum)
            bucket_max = _pair_combine(bucket_max, W, _NEG_INF, np.maximum)
            W = (W + 1) // 2
        amin[rows], amax[rows] = _atan_buckets(bucket_min, bucket_max)


class ShapeIndex:
    """The collection-level index: one pyramid entry per candidate.

    Built once per collection (:meth:`build`), extended incrementally
    across appends (:meth:`extended` — unchanged trendlines keep their
    entries bit for bit), and held as one flat float64 block
    (:meth:`pack`) — the form the bound kernel reads, a worker attaches
    over shm and ``engine/artifacts.py`` memory-maps from disk
    (:meth:`from_packed`).  The pyramids are written straight into that
    block; :attr:`entries` are views of it, cut when first asked for.
    """

    __slots__ = ("_entries", "_values", "_layout", "_tiles", "_cut", "_by_key")

    def __init__(self, entries: List[Optional[TrendlineEntry]],
                 values: np.ndarray, layout: tuple):
        self._entries = entries
        self._values = values
        self._layout = layout
        self._tiles = _tiled_groups(values, layout[1])
        self._cut = False
        self._by_key: Optional[Dict[object, Tuple[TrendlineEntry, int]]] = None

    @classmethod
    def build(cls, trendlines: Sequence[Trendline]) -> "ShapeIndex":
        return cls._assemble(trendlines, {}, {})

    @classmethod
    def _assemble(cls, trendlines: Sequence[Trendline],
                  known: dict, known_tiles: dict) -> "ShapeIndex":
        """The index of ``trendlines``, copying what ``known`` already holds.

        Candidates are grouped by ``n_bins`` — which fixes every level's
        shape — in first-seen order; the block is sized from the classes
        alone, then each class is swept in blocks of at most
        :data:`BLOCK_ELEMENTS` slope-tile elements.  ``known`` maps a
        canonical group key to ``(entry, row)`` of a previous index and
        ``known_tiles`` its ``n_bins`` classes to their tiles: a
        candidate whose witness matches keeps that entry object and has
        its rows copied instead of re-summarized.
        """
        classes: Dict[int, List[int]] = {}
        for position, trendline in enumerate(trendlines):
            classes.setdefault(trendline.n_bins, []).append(position)
        groups: list = []
        total = 0
        for n_bins, positions in classes.items():
            shapes = []
            for w, W in _level_shapes(n_bins):
                shapes.append((w, W, total))
                total += len(positions) * W * (W + 1)
            if shapes:
                groups.append((n_bins, positions, shapes))
        entries: List[Optional[TrendlineEntry]] = [None] * len(trendlines)
        index = cls(entries, np.empty(total, dtype=np.float64), (len(entries), groups))
        for n_bins, positions, tiles in index._tiles:
            step = max(1, BLOCK_ELEMENTS // (tiles[0][0] * (n_bins + 1)))
            for lo in range(0, len(positions), step):
                part = positions[lo:lo + step]
                stack = _prefix_rows(trendlines, part, n_bins)
                fresh, kept, source = [], [], []
                for row, (position, digest) in enumerate(
                    zip(part.tolist(), _prefix_digests(stack))
                ):
                    key = canonical_group_key(trendlines[position].key)
                    witness = (key, n_bins, digest)
                    entry, old_row = known.get(key, (None, 0))
                    if entry is not None and entry.witness == witness:
                        kept.append(lo + row)
                        source.append(old_row)
                    else:
                        entry = TrendlineEntry(n_bins, None, witness)
                        fresh.append(row)
                    entries[position] = entry
                if kept:
                    for (_w, amin, amax), (_w, old_min, old_max) in zip(
                        tiles, known_tiles[n_bins]
                    ):
                        amin[kept], amax[kept] = old_min[source], old_max[source]
                if fresh:
                    if kept:
                        stack = stack[:, fresh]
                    _summarize(stack, tiles, lo + np.asarray(fresh))
        return index

    def __len__(self) -> int:
        return self._layout[0]

    @property
    def indexed(self) -> int:
        """Entries that actually carry a pyramid (others never prune)."""
        return sum(len(positions) for _n_bins, positions, _shapes in self._layout[1])

    @property
    def nbytes(self) -> int:
        return self._values.nbytes

    @property
    def entries(self) -> List[Optional[TrendlineEntry]]:
        """One :class:`TrendlineEntry` per candidate, None where unindexed.

        The dense ``(W, W)`` level matrices are unpacked from the block's
        triangles on first access — for tests and reference oracles;
        nothing on the query path reads them.  They are copies: writing
        to them leaves the index as it is.  An entry shared along an
        append lineage keeps the matrices of whichever index made them
        first (the bytes are equal by construction).
        """
        if not self._cut:
            for n_bins, positions, tiles in self._tiles:
                dense = [
                    (
                        w,
                        _dense(amin, _super_bins(n_bins, w), _POS_INF),
                        _dense(amax, _super_bins(n_bins, w), _NEG_INF),
                    )
                    for w, amin, amax in tiles
                ]
                for row, position in enumerate(positions.tolist()):
                    entry = self._entries[position]
                    if entry.levels is None:
                        entry.levels = [
                            (w, amin[row], amax[row]) for w, amin, amax in dense
                        ]
            self._cut = True
        return self._entries

    def witnesses(self) -> List[Optional[tuple]]:
        """Every entry's content witness, None where unindexed or unknown."""
        return [
            entry.witness if entry is not None else None for entry in self._entries
        ]

    # -- incremental extension ---------------------------------------------
    def extended(self, trendlines: Sequence[Trendline]) -> "ShapeIndex":
        """The index of ``trendlines``, reusing every bitwise-unchanged entry.

        Matching is by content witness (canonical group key + bin count
        + prefix digest), not position, so appends that add new groups —
        or re-generations that drop degenerate ones — still reuse every
        untouched trendline's pyramid: its rows are copied into the new
        block and its entry object carries over, while changed and new
        trendlines go through the same class-batched kernel as
        :meth:`build`.  An entry is a pure function of the witnessed
        bits, so the result equals :meth:`build` on the same trendlines
        bit for bit; reuse is only ever a work-skip.
        """
        if self._by_key is None:
            self._by_key = {
                self._entries[position].witness[0]: (self._entries[position], row)
                for _n_bins, positions, _tiles in self._tiles
                for row, position in enumerate(positions.tolist())
                if self._entries[position].witness is not None
            }
        known_tiles = {n_bins: tiles for n_bins, _positions, tiles in self._tiles}
        return self._assemble(trendlines, self._by_key, known_tiles)

    # -- query-time bounds --------------------------------------------------
    def upper_bounds(
        self, query: CompiledQuery, floor: float = _NEG_INF
    ) -> np.ndarray:
        """Per-candidate upper bounds on ``query``'s score.

        Levels are consulted coarse → fine, each tightening the bound
        (min over levels, clamped at −1); with a bounded ``floor`` a
        candidate stops at the first level whose bound fails
        :func:`survives_floor`, so every float is a valid upper bound and
        the verdict on it is final (:func:`_refine`).  One coarse max-plus
        DP per pyramid level across *all* candidates at once: the packed
        block is level-major, so each level of each ``n_bins`` group is
        one ``(candidates, W(W+1)/2)`` triangle pair, read in place, and
        the recurrence runs on ``(candidates, W)`` state tiles with no
        per-candidate Python dispatch.  The one-candidate-at-a-time
        reference the tests hold it to, bit for bit, is
        ``tests/oracles/index_bounds.py``.
        Unindexed entries bound at ``+inf`` (never pruned); an empty
        index returns a well-formed empty float64 vector.
        """
        return self.upper_bounds_range(query, 0, len(self), floor)

    def upper_bounds_range(
        self, query: CompiledQuery, start: int, end: int,
        floor: float = _NEG_INF,
    ) -> np.ndarray:
        """Bounds for candidate positions ``[start, end)`` — the shard form.

        ``dispatch_index_bounds`` workers call this over their range of
        the attached index; the DP is per-candidate independent, so
        sharding never changes a float and the concatenated shards equal
        the in-process :meth:`upper_bounds` bit for bit.  A range cuts a
        contiguous run of rows out of every group's tiles (group
        positions ascend), so shards are zero-copy slices too.
        """
        out = np.full(max(0, end - start), _POS_INF, dtype=np.float64)
        for n_bins, positions, levels in self._tiles:
            lo, hi = np.searchsorted(positions, (start, end))
            if lo < hi:
                tiles = [(w, amin[lo:hi], amax[lo:hi]) for w, amin, amax in levels]
                bound = np.full(hi - lo, _POS_INF)
                _refine(n_bins, tiles[::-1], query, bound, floor)
                out[positions[lo:hi] - start] = bound
        return out

    # -- flat packing (the shared-memory and on-disk export form) ------------
    def pack(self) -> Tuple[np.ndarray, tuple]:
        """The ``(values, layout)`` form: the block the index lives in.

        ``values`` is one contiguous float64 block laid out **level-major**:
        indexed entries are grouped by ``n_bins`` (which fixes every
        level's shape), and per group, per level, the block holds the
        ``(C, W(W+1)/2)`` bucket-min triangles of all ``C`` members, then
        their bucket-max triangles — each member's buckets ``(a, b)``,
        ``a ≤ b``, in row-major order (:func:`_triangle`; a bucket with
        ``b < a`` holds no segment and is not stored) — so the batched
        kernel reads each level as one array.  ``layout`` is ``(entry
        count, [(n_bins, member positions ascending, [(w, W, offset),
        ...]), ...])``; unindexed entries belong to no group.  Shared, not copied, by the bound
        kernel, shm publication and the artifact store.
        """
        return self._values, self._layout

    @classmethod
    def from_packed(
        cls, values: np.ndarray, layout: tuple,
        witnesses: Optional[Sequence[Optional[tuple]]] = None,
    ) -> "ShapeIndex":
        """Adopt :meth:`pack` output (an attached segment, a mapped file).

        By default entries carry no witness (an attached shm index is a
        read-only consumer view — extension happens publisher-side and
        republishes).  The artifact store passes the persisted
        ``witnesses`` back in so a memory-mapped index keeps the
        :meth:`extended` reuse contract across process restarts.
        """
        count, groups = layout
        entries: List[Optional[TrendlineEntry]] = [None] * count
        for n_bins, positions, _shapes in groups:
            for position in positions:
                witness = witnesses[position] if witnesses is not None else None
                entries[position] = TrendlineEntry(n_bins, None, witness)
        return cls(entries, values, layout)


def _tiled_groups(values: np.ndarray, groups: list) -> list:
    """``(n_bins, positions, [(w, amin tile, amax tile)])`` per packed group.

    Tiles are ``(members, W(W+1)/2)`` triangle views over the level-major
    block and carry no query state.  They are cut from a plain
    ``ndarray`` view of the block, so a memory-mapped block's tiles
    slice without ``np.memmap.__getitem__`` on the bound kernel's path;
    nothing is copied, and the index still holds the mapping itself.  A
    layout that does not describe the block exactly — a level shape
    other than its class's (:func:`_level_shapes`, whose
    :func:`_super_bins` the kernel relies on), a gap or overlap between
    tiles, a block
    of another length (say, dense tiles under a triangle layout) —
    raises ``ValueError``; the artifact store counts that as a miss.
    """
    values = values.view(np.ndarray)
    tiled = []
    cursor = 0
    for n_bins, positions, shapes in groups:
        count = len(positions)
        if [(w, W) for w, W, _offset in shapes] != _level_shapes(n_bins):
            raise ValueError("level shapes {} do not fit {} bins".format(shapes, n_bins))
        tiles = []
        for w, W, offset in shapes:
            if offset != cursor:
                raise ValueError("tile at {}, expected {}".format(offset, cursor))
            size = count * W * (W + 1) // 2
            amin = values[offset:offset + size].reshape(count, -1)
            amax = values[offset + size:offset + 2 * size].reshape(count, -1)
            tiles.append((w, amin, amax))
            cursor = offset + 2 * size
        tiled.append((n_bins, np.asarray(positions, dtype=np.intp), tiles))
    if cursor != len(values):
        raise ValueError(
            "layout covers {} floats of a {}-float block".format(cursor, len(values))
        )
    return tiled


# ---------------------------------------------------------------------------
# Per-level chain bound: unit bucket bounds + coarse max-plus DP
# ---------------------------------------------------------------------------


def _unit_key(unit) -> tuple:
    """Units with equal keys bound every bucket identically."""
    if isinstance(unit, SlopeUnit):
        return ("slope", unit.kind, unit.theta, unit.negated)
    return ("line",)


def _constant_upper(unit) -> Optional[float]:
    """The bucket-independent bound of ``any``/``empty``/line units, else None."""
    if not isinstance(unit, SlopeUnit):
        return 1.0  # LineUnit (and any future bounded unit): score ≤ 1
    if unit.kind not in ("any", "empty"):
        return None
    value = 1.0 if unit.kind == "any" else -1.0
    return -value if unit.negated else value


def _unit_widths(n_bins: int, units_count: int) -> List[int]:
    """The narrowest width any algorithm places each unit of a chain at.

    Interior units are ``run_min_length`` wide under every run solver.
    dp/loop and greedy hold the end units to it too, but the
    SegmentTree enforces the floor only where two subtrees meet, so a
    first or last unit can be one leaf wide
    (:func:`~repro.engine.units.default_leaf_size`, never above the
    floor): bounding end units there admits every algorithm's placements.
    """
    min_len = run_min_length(0, n_bins, units_count)
    if units_count < 2:
        return [min_len]
    edge = default_leaf_size(min_len)
    return [edge] + [min_len] * (units_count - 2) + [edge]


def _tile_upper(unit, amin: np.ndarray, amax: np.ndarray):
    """Upper bound on one unit's Table 5 score over each bucket given.

    ``amin``/``amax`` are any equal-shaped selection of buckets — a
    ``(C, W(W+1)/2)`` triangle, one row or column of it, one bucket per
    candidate — and every operation is elementwise, so a bucket's float
    does not depend on what else was selected.  y-location masks only
    ever lower scores, so they need no handling in an upper bound.  The
    empty-bucket ±inf sentinels flow through the transforms (no 0·inf
    or inf−inf arises, so no NaN and no FP exception) into buckets the
    caller masks anyway, and the scores are weakly monotone in the atan
    *under IEEE rounding* (each is a chain of monotone operations), so
    the endpoint maximum is the score of one known endpoint: the upper
    one for a rising score, the lower one for a falling score, and for a
    peaked flat/θ score the endpoint nearest the target — the target
    itself, scoring exactly 1.0, when the interval straddles it.  A
    negated flat/θ is a trough, so it keeps both endpoint transforms.
    Returns a fresh array the caller may overwrite, or a float for
    constant units (``any``, ``empty``, line units: constants ≤ 1.0).
    """
    constant = _constant_upper(unit)
    if constant is not None:
        return constant
    score = scoring.pattern_score_from_atan
    if unit.kind in ("up", "down"):
        rising = (unit.kind == "up") != unit.negated
        upper = score(unit.kind, amax if rising else amin, unit.theta)
        return np.negative(upper, out=upper) if unit.negated else upper
    if unit.negated:
        return np.maximum(
            -score(unit.kind, amin, unit.theta), -score(unit.kind, amax, unit.theta)
        )
    target = 0.0 if unit.kind == "flat" else math.radians(unit.theta)
    nearest = np.maximum(amin, target)
    return score(unit.kind, np.minimum(nearest, amax, out=nearest), unit.theta)


def _dp_buckets(tri: np.ndarray, W: int, first: bool, last: bool) -> np.ndarray:
    """The buckets of a ``(…, W(W+1)/2)`` triangle a unit's DP step reads.

    A first unit starts in super-bin 0, so only row 0 — the triangle's
    first ``W`` entries; a last unit ends in super-bin W−1, so only
    column W−1 — each row's last entry, gathered; a lone unit reads
    bucket (0, W−1); a middle unit the whole triangle.
    """
    if first and last:
        return tri[..., W - 1]
    if first:
        return tri[..., :W]
    if last:
        return tri[..., _triangle(W)[2][1:] - 1]
    return tri


def _weighted_part(cu, width: int, first: bool, last: bool, w: int, W: int,
                   amin: np.ndarray, amax: np.ndarray, shared: dict) -> np.ndarray:
    """The masked ``weight · upper`` buckets of one unit that the DP reads.

    The unit's :func:`_dp_buckets` of the level's triangles; buckets that are
    empty or too narrow to host the unit's minimum width
    (:func:`_unit_widths`) are −inf.  ``shared`` memoizes, for this
    level, each part per (unit, weight, width) and its infeasible mask
    per (width, part); an edge part of a triangle already memoized is
    cut from it, and the DP only ever reads a part.
    """
    key = (_unit_key(cu.unit), cu.weight, width)
    part = shared.get(key + (first, last))
    if part is not None:
        return part
    tile = shared.get(key + (False, False))
    if tile is not None:
        part = shared[key + (first, last)] = _dp_buckets(tile, W, first, last)
        return part
    lo, hi = _dp_buckets(amin, W, first, last), _dp_buckets(amax, W, first, last)
    infeasible = shared.get(("infeasible", width, first, last))
    if infeasible is None:
        rows, cols, _starts = _triangle(W)
        narrow = (cols - rows + 1) * w < width
        infeasible = shared["infeasible", width, first, last] = (
            np.isinf(lo) | _dp_buckets(narrow, W, first, last)
        )
    upper = _tile_upper(cu.unit, lo, hi)
    if isinstance(upper, float):
        part = np.where(infeasible, _NEG_INF, cu.weight * upper)
    else:
        part = np.multiply(upper, cu.weight, out=upper)
        np.copyto(part, _NEG_INF, where=infeasible)
    shared[key + (first, last)] = part
    return part


def _batched_chain_bound(
    n_bins: int,
    chain: Chain,
    w: int,
    amin: np.ndarray,
    amax: np.ndarray,
    shared: dict,
) -> np.ndarray:
    """Bound one chain's best full-cover score from one level's triangles.

    Max-plus DP over (start super-bin, end super-bin) bucket bounds, run
    on ``(C, W)`` state rows with no per-candidate Python: the first
    unit starts at bin 0 (super-bin 0), the last ends at bin ``n``
    (super-bin W−1), and consecutive units share their boundary bin — so
    the next start super-bin is the previous end super-bin or its
    successor.  Each unit contributes only the buckets the recurrence
    reads (:func:`_weighted_part`); start ``a``'s reachable ends are
    one contiguous run of its triangle row.  The max over start
    super-bins is accumulated start by start, in ascending order, over
    the end super-bins that start can reach at all — for the last unit,
    the one end W−1 — so every bound is the float the one-candidate
    reference (``tests/oracles/index_bounds.py``) computes, signed
    zeros included.
    """
    count, W = amin.shape[0], _super_bins(n_bins, w)
    starts = _triangle(W)[2]
    last = len(chain.units) - 1
    state: Optional[np.ndarray] = None
    for position, (cu, width) in enumerate(
        zip(chain.units, _unit_widths(n_bins, last + 1))
    ):
        weighted = _weighted_part(
            cu, width, position == 0, position == last, w, W, amin, amax, shared
        )
        if state is None:
            state = weighted
            continue
        # Buckets (a, b) with b < a + reach_from are too narrow for the unit.
        reach_from = max(0, -(-width // w) - 1)
        reach = state.copy()
        reach[:, 1:] = np.maximum(state[:, 1:], state[:, :-1])
        if position < last:
            state = np.full((count, W), _NEG_INF)
            for a in range(W - reach_from):
                ends = state[:, a + reach_from:]
                row = weighted[:, starts[a] + reach_from:starts[a + 1]]
                np.maximum(ends, reach[:, a, None] + row, out=ends)
        else:
            state = np.full(count, _NEG_INF)
            for a in range(W - reach_from):
                np.maximum(state, reach[:, a] + weighted[:, a], out=state)
    return state


def _refine(
    n_bins: int,
    levels: list,
    query: CompiledQuery,
    bound: np.ndarray,
    floor: float,
    keep: Optional[np.ndarray] = None,
) -> List[int]:
    """Tighten ``bound`` in place through ``levels`` (coarse → fine).

    The one-candidate level loop (``tests/oracles/index_bounds.py``)
    across one ``n_bins`` class, decision for decision: chain max /
    level min spelled as the scalar ``max``/``min`` (``b if b > a else
    a`` elementwise — bitwise the same picks; the −1 start of the chain
    max is the scalar clamp), and the scalar early exit becomes a gather
    — a level is evaluated only on the rows whose bound still passes
    :func:`survives_floor` (and, when given, the ``keep`` mask),
    :data:`BLOCK_ELEMENTS` at a time, so its temporaries are sized by
    the rows still alive and every other row keeps the coarser float the
    scalar early return yields.  Returns the rows evaluated per level.
    """
    evaluated = []
    for w, amin, amax in levels:
        alive = survives_floor(bound, floor)
        if keep is not None:
            alive &= keep
        rows = np.flatnonzero(alive)
        evaluated.append(rows.size)
        if not rows.size:
            break
        everyone = rows.size == bound.size  # contiguous views, nothing gathered
        step = max(1, BLOCK_ELEMENTS // amin[0].size)
        for lo in range(0, rows.size, step):
            part = slice(lo, lo + step) if everyone else rows[lo:lo + step]
            tile_min, tile_max = amin[part], amax[part]
            shared: dict = {}
            level_bound = np.full(len(tile_min), INFEASIBLE)
            for chain in query.chains:
                chain_bound = _batched_chain_bound(
                    n_bins, chain, w, tile_min, tile_max, shared
                )
                level_bound = np.where(
                    chain_bound > level_bound, chain_bound, level_bound
                )
            current = bound[part]
            bound[part] = np.where(level_bound < current, level_bound, current)
    return evaluated


# ---------------------------------------------------------------------------
# Best-first top-k: the bound frontier the Score rounds draw from
# ---------------------------------------------------------------------------

#: Smallest first round: collections at or below this size are never
#: pruned (scoring them outright is cheaper than bounding them).
MIN_SEED_CANDIDATES = 16


class TopKFloor:
    """The running top-k floor: the k-th best exact score seen so far.

    −inf until k finite scores exist, and it only ever rises — so a
    candidate that once failed :func:`survives_floor` against
    :attr:`value` stays out for good.
    """

    __slots__ = ("k", "_best")

    def __init__(self, k: int):
        self.k = k
        self._best: List[float] = []  # min-heap of the k best scores

    def add(self, scores) -> None:
        for score in scores:
            if not math.isfinite(score):
                continue
            if len(self._best) < self.k:
                heapq.heappush(self._best, score)
            else:
                heapq.heappushpop(self._best, score)

    @property
    def value(self) -> float:
        return self._best[0] if len(self._best) == self.k else _NEG_INF


class BoundFrontier:
    """Every candidate's current bound, and who is still worth solving.

    Bound-ordered top-k: Score draws the best-bounded unsolved candidates
    a block at a time (:meth:`next_block`), solves them, raises the
    floor and asks again until nothing unsolved can reach it.  Pyramid
    levels are consulted lazily: the coarse levels bound everyone up
    front; the finest — most of a full bound pass — waits for the first
    floor that can prune at all and is then evaluated once, on the
    gathered rows that are unsolved and still pass
    :func:`survives_floor` (the floor only rises, so every other row is
    already decided; the first block is drawn by the coarse bounds,
    which a finer level could reorder but not shrink).  Unindexed
    entries and one-level classes wait at ``+inf`` and go out first;
    ``bounds`` adopts worker-computed full-depth bounds instead.

    Exactness needs only that each float is a valid upper bound — a min
    over some of the candidate's levels — and each discard a strict
    :func:`survives_floor` failure against a floor k solved candidates
    reach; which block went first never matters.
    """

    def __init__(self, index: ShapeIndex, query: CompiledQuery,
                 bounds: Optional[np.ndarray] = None):
        self.query = query
        self.unsolved = np.ones(len(index), dtype=bool)
        self.rounds = 0
        #: Rows evaluated per pyramid level, coarsest first.
        self.refined: List[int] = []
        self._finest: list = []
        if bounds is not None:
            self.bounds = np.asarray(bounds, dtype=np.float64)
            return
        self.bounds = np.full(len(index), _POS_INF)
        for n_bins, positions, levels in index._tiles:
            self._tighten(n_bins, positions, levels[:0:-1], 0, _NEG_INF)
            self._finest.append((n_bins, positions, levels[:1], len(levels) - 1))

    def _tighten(self, n_bins, positions, levels, depth, floor) -> None:
        bound = self.bounds[positions]
        evaluated = _refine(
            n_bins, levels, self.query, bound, floor, self.unsolved[positions]
        )
        self.bounds[positions] = bound
        for level, rows in enumerate(evaluated, depth):
            if level == len(self.refined):
                self.refined.append(0)
            self.refined[level] += rows

    def next_block(self, size: int, floor: float) -> List[int]:
        """Up to ``size`` unsolved positions that can still reach ``floor``.

        The best-bounded first (bound desc, position asc), returned in
        position order and marked solved; empty once no unsolved
        candidate passes :func:`survives_floor` — the search is over.
        """
        if self._finest and not survives_floor(INFEASIBLE, floor):
            # Bounds never fall below INFEASIBLE, so only now can a
            # tighter bound change a verdict.
            finest, self._finest = self._finest, []
            for n_bins, positions, levels, depth in finest:
                self._tighten(n_bins, positions, levels, depth, floor)
        alive = np.flatnonzero(self.unsolved & survives_floor(self.bounds, floor))
        if not alive.size:
            return []
        best = np.lexsort((alive, -self.bounds[alive]))[:size]
        block = np.sort(alive[best], kind="stable")
        self.unsolved[block] = False
        self.rounds += 1
        return block.tolist()


def prune_candidates(
    trendlines: Sequence[Trendline],
    index: ShapeIndex,
    query: CompiledQuery,
    k: int,
    solve=None,
    bounds: Optional[np.ndarray] = None,
    solve_many=None,
) -> Tuple[List[int], int]:
    """The frontier loop outside a pipeline (benchmarks, ``bench/layers.py``).

    Blocks on the Score stage's schedule
    (:func:`~repro.engine.parallel.round_size`) go to ``solve_many(block
    trendlines)``, their scores into the floor.  Returns ``(solved
    positions ascending, never-solved count)``.  ``solve`` is the older
    per-trendline callback (``bench/layers.py`` still passes it
    positionally), wrapped into a ``solve_many`` that loops; ``bounds``
    supplies full-depth bounds computed elsewhere.
    """
    from repro.engine.parallel import round_size

    if solve_many is None:
        if solve is None:
            raise TypeError("prune_candidates() needs a solve_many callback")

        def solve_many(block):
            return [solve(trendline) for trendline in block]

    total = len(trendlines)
    if total <= max(int(k), MIN_SEED_CANDIDATES) or k < 1:
        return list(range(total)), 0
    frontier = BoundFrontier(index, query, bounds)
    floor = TopKFloor(int(k))
    solved: List[int] = []
    while True:
        block = frontier.next_block(round_size(k, frontier.rounds), floor.value)
        if not block:
            return sorted(solved), total - len(solved)
        results = solve_many([trendlines[position] for position in block])
        floor.add(float(result.score) for result in results)
        solved += block
