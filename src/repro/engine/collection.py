"""The columnar candidate collection and the block kernel that builds it.

EXTRACT and GROUP (paper §5.3) produce one
:class:`~repro.engine.trendline.Trendline` per distinct z value.  This
module builds all of them in one pass over the table's columns instead
of one numpy chain per group:

    filter mask → gather z codes / x / y → one stable ``lexsort`` on
    (group, x) → duplicate-x runs aggregated → push-down (a), the
    two-point floor and the x-span check as vector masks → binning,
    z-normalisation and the five prefix sums

and writes the result into a struct-of-arrays :class:`Collection` whose
trendlines are zero-copy views.  The contract is **byte-identity** with
the per-group reference (``tests/oracles/generation.py``): every float
below is produced by the same IEEE operations in the same order that
reference uses.  Element-wise arithmetic is order-free, so it runs flat
over all groups at once; the three order-sensitive reductions do not:

* ``mean``/``std`` and the duplicate-x aggregates are numpy's pairwise
  reductions, whose rounding depends on the segment length — they run
  row-wise on C-contiguous ``(groups, n)`` blocks, one block per length
  class (:func:`_length_classes`), which rounds exactly like the 1-D
  call on each row.  ``np.add.reduceat`` does *not* (it seeds each
  segment with its first element and reduces the other ``n - 1``), and
  neither does a global ``cumsum`` minus group offsets.
* per-bin sums are one flat ``np.bincount`` over ``bin offset + local
  bin`` — it accumulates in array order, as the per-group call does.
* prefix sums are ``cumsum(axis=-1)`` on the same per-class blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator, List, Optional, Sequence, Tuple, Union, overload

import numpy as np

from repro.data.filters import filter_mask
from repro.data.table import Table, canonical_group_key
from repro.data.visual_params import VisualParams
from repro.engine.pushdown import PushdownPlan
from repro.engine.statistics import PrefixStats
from repro.engine.trendline import Trendline
from repro.errors import DataError

#: Most elements one gathered block may hold.  The binning/normalisation
#: pass runs over consecutive groups totalling at most this many points,
#: so generation peaks at the collection plus a few blocks rather than a
#: dozen table-sized temporaries.  2 MiB of float64: past the point
#: where per-call overhead matters, small enough to stay cache-friendly.
BLOCK_ELEMENTS = 1 << 18

#: Row-wise duplicate-x aggregates (``count`` is the run length itself).
_ROW_AGGREGATES = {
    "mean": np.mean,
    "sum": np.sum,
    "min": np.min,
    "max": np.max,
    "median": np.median,
}


@dataclass(eq=False, repr=False)
class Collection(Sequence[Trendline]):
    """Generated trendlines as one struct of arrays.

    ``x``/``y`` hold every group's raw points back to back
    (``point_offsets`` delimits them), ``bin_x``/``bin_y``/``norm_bin_y``
    the bins (``bin_offsets``), and ``prefix`` the five cumulative rows
    of every group side by side — group ``g`` owns columns
    ``bin_offsets[g] + g`` to ``bin_offsets[g + 1] + g`` inclusive (one
    leading zero each).  ``group_keys`` lists the key of *every* group of
    the filtered table in enumeration order and ``groups[g]`` is
    trendline ``g``'s index into it, so a range-restricted build slots
    into the full one and a group that left no trendline still has a
    name.  All arrays are read-only and the :class:`Trendline` views are
    built once, here: the sequence hands out the same objects on every
    access, which is what lets identity-keyed memos (the shm session,
    the rank-path index) recognise it.
    """

    group_keys: List[Hashable]
    groups: np.ndarray
    point_offsets: np.ndarray
    bin_offsets: np.ndarray
    x: np.ndarray
    y: np.ndarray
    bin_x: np.ndarray
    bin_y: np.ndarray
    norm_bin_y: np.ndarray
    prefix: np.ndarray
    y_mean: np.ndarray
    y_std: np.ndarray
    offset: np.ndarray
    keys: List[Hashable] = field(init=False)
    _views: List[Trendline] = field(init=False)

    def __post_init__(self) -> None:
        for array in self._arrays():
            array.setflags(write=False)
        self.keys = [self.group_keys[group] for group in self.groups.tolist()]
        points, bins = self.point_offsets.tolist(), self.bin_offsets.tolist()
        self._views = []
        for g, (key, mean, std, first_bin) in enumerate(
            zip(self.keys, self.y_mean.tolist(), self.y_std.tolist(), self.offset.tolist())
        ):
            p0, p1, b0, b1 = points[g], points[g + 1], bins[g], bins[g + 1]
            stacked = self.prefix[:, b0 + g : b1 + g + 1]
            self._views.append(
                Trendline(
                    key=key,
                    x=self.x[p0:p1],
                    y=self.y[p0:p1],
                    bin_x=self.bin_x[b0:b1],
                    bin_y=self.bin_y[b0:b1],
                    norm_bin_y=self.norm_bin_y[b0:b1],
                    prefix=PrefixStats.from_cumulative(*stacked, stacked=stacked),
                    y_mean=mean,
                    y_std=std,
                    offset=first_bin,
                )
            )

    def _arrays(self) -> List[np.ndarray]:
        return [value for value in vars(self).values() if isinstance(value, np.ndarray)]

    @property
    def nbytes(self) -> int:
        """Bytes held by the block arrays (the views add no data)."""
        return sum(array.nbytes for array in self._arrays())

    def prefix_rows(self, positions: np.ndarray, bins: int) -> np.ndarray:
        """``(5, len(positions), bins + 1)``: equal-length trendlines' prefix rows.

        One gather from the wide block — what stacking the views'
        ``prefix.stacked`` windows yields, without a copy per trendline.
        """
        positions = np.asarray(positions, dtype=np.intp)
        first = self.bin_offsets[positions] + positions
        return np.take(self.prefix, first[:, None] + np.arange(bins + 1), axis=1)

    def __len__(self) -> int:
        return len(self._views)

    @overload
    def __getitem__(self, index: int) -> Trendline: ...

    @overload
    def __getitem__(self, index: slice) -> List[Trendline]: ...

    def __getitem__(self, index: Union[int, slice]) -> Union[Trendline, List[Trendline]]:
        return self._views[index]

    def __iter__(self) -> Iterator[Trendline]:
        return iter(self._views)


def require_columns(table: Table, params: VisualParams) -> None:
    for name in (params.z, params.x, params.y):
        if name not in table:
            raise DataError(
                "visual parameter column {!r} not in table (columns: {})".format(
                    name, table.column_names
                )
            )


def grouping(
    table: Table, params: VisualParams
) -> Tuple[Optional[np.ndarray], np.ndarray, List[Hashable]]:
    """``(rows, group ids, keys)`` of the filtered table, from the z encoding.

    ``rows`` are the row numbers that pass the filters (None: no filters,
    every row), ``group ids`` one per such row, and ``keys`` the group
    keys in enumeration order — first seen among the *filtered* rows,
    the order the engine's positions and shard ranges are defined over.
    Each key is the value of its group's first filtered row: where equal
    values of different types share a group (``1`` beside ``True``), a
    filter can change which of them names it.
    """
    encoding = table.encoding(params.z)
    if not params.filters:
        return None, encoding.codes, encoding.keys
    rows = np.flatnonzero(filter_mask(table, params.filters))
    codes = encoding.codes[rows]
    present, first = np.unique(codes, return_index=True)
    order = np.argsort(first, kind="stable")
    dense = np.empty(len(encoding.keys), dtype=np.intp)
    dense[present[order]] = np.arange(len(present))
    named = table.column(params.z)[rows[first[order]]].tolist()
    return rows, dense[codes], [canonical_group_key(value) for value in named]


def count_groups(table: Table, params: VisualParams) -> int:
    """Number of candidate groups (distinct filtered z values)."""
    return len(grouping(table, params)[2])


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """``[0, s0, s0 + s1, ...]`` — segment boundaries from segment sizes."""
    offsets = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def _length_classes(
    starts: np.ndarray, lengths: np.ndarray
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield ``(members, index)`` per block of equal-length segments.

    ``index`` is the ``(len(members), length)`` gather matrix of the
    members' elements, so ``values[index]`` is a C-contiguous block whose
    row-wise reductions round exactly like the 1-D call on each segment.
    Blocks hold at most :data:`BLOCK_ELEMENTS` elements (one row at
    least).
    """
    # (Not np.unique: recent numpy imports the numpy.ma package on the
    # first such call — ~10 ms in every process, each forked worker's
    # first shard included.)
    for length in sorted(set(lengths.tolist())):
        members = np.flatnonzero(lengths == length)
        rows = max(1, BLOCK_ELEMENTS // max(1, length))
        for lo in range(0, len(members), rows):
            part = members[lo : lo + rows]
            yield part, starts[part][:, None] + np.arange(length)


def _sorted_points(
    table: Table, params: VisualParams, selected: Optional[Sequence[int]]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[Hashable]]:
    """Gather the z/x/y the build reads, sorted on (group, x), stably.

    ``selected`` restricts the gather to the named group indices (those
    past the last group name nothing).  Only the three columns are
    touched — not ``Table.take`` of every column.
    """
    rows, gid, keys = grouping(table, params)
    if selected is not None:
        chosen = np.asarray(selected, dtype=np.intp)
        wanted = np.zeros(len(keys), dtype=bool)
        wanted[chosen[chosen < len(keys)]] = True
        picked = np.flatnonzero(wanted[gid])
        gid = gid[picked]
        rows = picked if rows is None else rows[picked]
    x, y = table.column(params.x), table.column(params.y)
    if rows is not None:
        x, y = x[rows], y[rows]
    x, y = x.astype(float, copy=False), y.astype(float, copy=False)
    # Stable on both keys: a group's rows keep their table order among
    # equal x, which fixes the order duplicate-x aggregates see them in.
    order = np.lexsort((x, gid))
    return gid[order], x[order], y[order], keys


def _collapse_duplicate_x(
    gid: np.ndarray, x: np.ndarray, y: np.ndarray, groups: int, aggregate: str
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One point per distinct x of each group, y aggregated per run.

    x is sorted within each group, so the rows sharing an x value are one
    contiguous run (all NaN x of a group collapse into one, as
    ``np.unique`` does) — each run is reduced once, not once per distinct
    x over the whole group.  A group with no duplicate keeps its y values
    untouched; a group with any has *every* run aggregated — singleton
    runs included, which is what turns them into 1.0 under ``count``.
    """
    if len(x) < 2:
        return gid, x, y
    same = (gid[1:] == gid[:-1]) & (
        (x[1:] == x[:-1]) | (np.isnan(x[1:]) & np.isnan(x[:-1]))
    )
    if not same.any():
        return gid, x, y
    run_start = np.flatnonzero(np.concatenate(([True], ~same)))
    run_length = np.diff(np.append(run_start, len(x)))
    run_gid = gid[run_start]
    has_duplicates = np.zeros(groups, dtype=bool)
    has_duplicates[run_gid[run_length > 1]] = True
    touched = np.flatnonzero(has_duplicates[run_gid])
    collapsed = y[run_start]
    if aggregate == "count":
        collapsed[touched] = run_length[touched]
    else:
        reduce = _ROW_AGGREGATES[aggregate]
        for members, index in _length_classes(run_start[touched], run_length[touched]):
            collapsed[touched[members]] = reduce(y[index], axis=1)
    return run_gid, x[run_start], collapsed


def _bin_block(
    x: np.ndarray,
    y: np.ndarray,
    sizes: np.ndarray,
    bin_width: Optional[float],
    normalize_y: bool,
    keep_span: Optional[Tuple[float, float]],
) -> Tuple[np.ndarray, ...]:
    """GROUP for consecutive groups of ``sizes`` points each.

    Returns ``(bin_x, bin_y, norm_bin_y, prefix, bins, y_mean, y_std,
    offset)``: the binned arrays back to back, the ``(5, Σ(bins + 1))``
    prefix block, and per group the bin count, the normalisation
    constants and the first materialised bin (push-down (c)).
    """
    count = len(sizes)
    starts = _offsets(sizes)[:-1]
    gid = np.repeat(np.arange(count), sizes)
    first_x = x[starts]
    x_span = x[starts + sizes - 1] - first_x
    y_mean, y_std = np.zeros(count), np.ones(count)
    if normalize_y:
        for members, index in _length_classes(starts, sizes):
            block = y[index]
            y_mean[members] = block.mean(axis=1)
            y_std[members] = block.std(axis=1)
        y_std[y_std < 1e-12] = 1.0
    # Normalised coordinates use the whole series, whatever is kept below.
    norm_x = (x - first_x[gid]) / x_span[gid]
    norm_y = (y - y_mean[gid]) / y_std[gid]

    # Bin assignment: one bin per point, or fixed-width bins renumbered to
    # consecutive ids so empty bins do not appear.  ``bin_id`` numbers the
    # bins of all groups consecutively.
    offset = np.zeros(count, dtype=np.intp)
    if bin_width is None or bin_width <= 0:
        bins, bin_id = sizes, np.arange(len(x))
        if keep_span is not None and bin_width is None:
            # Push-down (c): statistics only over the pinned x range, when
            # it leaves at least two bins; the raw points stay whole.
            low = np.bincount(gid[x < keep_span[0]], minlength=count)
            high = np.bincount(gid[x <= keep_span[1]], minlength=count)
            narrowed = high - low >= 2
            offset = np.where(narrowed, low, 0)
            bins = np.where(narrowed, high - low, sizes)
            local = bin_id - (starts + offset)[gid]
            kept = (local >= 0) & (local < bins[gid])
            x, y, norm_x, norm_y, gid = x[kept], y[kept], norm_x[kept], norm_y[kept], gid[kept]
            bin_id = _offsets(bins)[gid] + local[kept]
    else:
        raw = np.floor((x - first_x[gid]) / bin_width).astype(int)
        order: Union[slice, np.ndarray] = slice(None)
        if ((raw[1:] < raw[:-1]) & (gid[1:] == gid[:-1])).any():
            # A non-finite x casts to the lowest integer: its bin ranks
            # first although the point sorts last.  Rank by value.
            order = np.lexsort((raw, gid))
        ranked, owner = raw[order], gid[order]
        fresh = np.ones(len(x), dtype=bool)
        fresh[1:] = (ranked[1:] != ranked[:-1]) | (owner[1:] != owner[:-1])
        bins = np.bincount(owner[fresh], minlength=count)
        bin_id = np.empty(len(x), dtype=np.intp)
        bin_id[order] = np.cumsum(fresh) - 1

    # Per-bin sums: bincount accumulates in array order, exactly as the
    # per-group call does on each group's points.
    total = int(bins.sum())
    owner = np.repeat(np.arange(count), bins)
    counts = np.bincount(bin_id, minlength=total)
    bin_x = np.bincount(bin_id, weights=x, minlength=total) / counts
    bin_y = np.bincount(bin_id, weights=y, minlength=total) / counts
    norm_bin_y = (bin_y - y_mean[owner]) / y_std[owner]
    sums = np.empty((len(PrefixStats.STACKED_ROWS), total))
    sums[0] = counts
    sums[1] = np.bincount(bin_id, weights=norm_x, minlength=total)
    sums[2] = np.bincount(bin_id, weights=norm_y, minlength=total)
    sums[3] = np.bincount(bin_id, weights=norm_x * norm_y, minlength=total)
    sums[4] = np.bincount(bin_id, weights=norm_x * norm_x, minlength=total)
    prefix = np.zeros((len(sums), total + count))
    for members, index in _length_classes(_offsets(bins)[:-1], bins):
        # Group g's cumulative row starts one column right of its bins'
        # position for every group before it: the leading zeros.
        prefix[:, index + members[:, None] + 1] = np.cumsum(sums[:, index], axis=2)
    return bin_x, bin_y, norm_bin_y, prefix, bins, y_mean, y_std, offset


def _blocks(offsets: np.ndarray) -> Iterator[Tuple[int, int]]:
    """Consecutive group ranges of at most :data:`BLOCK_ELEMENTS` points.

    Every range holds one group at least, and an empty collection is one
    empty range, so callers always see a block.
    """
    lo, last = 0, len(offsets) - 1
    while True:
        fit = int(np.searchsorted(offsets, offsets[lo] + BLOCK_ELEMENTS, side="right")) - 1
        hi = min(last, max(fit, lo + 1))
        yield lo, hi
        if hi >= last:
            return
        lo = hi


def build_collection(
    table: Table,
    params: VisualParams,
    normalize_y: bool = True,
    plan: Optional[PushdownPlan] = None,
    selected: Optional[Sequence[int]] = None,
) -> Collection:
    """EXTRACT ∘ GROUP over the whole table, as one :class:`Collection`.

    ``selected`` restricts the build to those group indices (a worker's
    shard range, the groups an append touched); the result's ``groups``
    says which of them produced a trendline.  Groups leave no trendline
    when push-down (a) finds a pinned x span without data, fewer than two
    distinct x values remain, or the x values span nothing.
    """
    require_columns(table, params)
    gid, x, y, keys = _sorted_points(table, params, selected)
    gid, x, y = _collapse_duplicate_x(gid, x, y, len(keys), params.aggregate)
    sizes = np.bincount(gid, minlength=len(keys))
    alive = sizes >= 2
    if plan is not None:
        for low, high in plan.required_spans:
            inside = gid[(x >= low) & (x <= high)]
            alive &= np.bincount(inside, minlength=len(keys)) > 0
    groups = np.flatnonzero(alive)
    ends = np.cumsum(sizes)[groups]
    span = x[ends - 1] - x[ends - sizes[groups]]
    groups = groups[~(span <= 0)]
    if len(groups) < len(keys):
        alive = np.zeros(len(keys), dtype=bool)
        alive[groups] = True
        points = alive[gid]
        x, y, sizes = x[points], y[points], sizes[groups]
    del gid  # one table-sized temporary less while the blocks run

    point_offsets = _offsets(sizes)
    keep_span = plan.keep_span if plan is not None else None
    blocks = [
        _bin_block(
            x[point_offsets[lo] : point_offsets[hi]],
            y[point_offsets[lo] : point_offsets[hi]],
            sizes[lo:hi],
            params.bin_width,
            normalize_y,
            keep_span,
        )
        for lo, hi in _blocks(point_offsets)
    ]
    bin_x, bin_y, norm_bin_y, prefix, bins, y_mean, y_std, offset = (
        parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
        for parts in zip(*blocks)
    )
    return Collection(
        group_keys=keys,
        groups=groups,
        point_offsets=point_offsets,
        bin_offsets=_offsets(bins),
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
