"""The columnar candidate collection and the block kernel that builds it.

EXTRACT and GROUP (paper §5.3) produce one
:class:`~repro.engine.trendline.Trendline` per distinct z value.  This
module builds all of them in one pass over the table's columns instead
of one numpy chain per group, split into the half that reads only z and
x and the half that reads y:

    x-side (:func:`_order`, :func:`_bins`): gather z codes / x → one
    stable ``lexsort`` on (group, x) → duplicate-x run boundaries → the
    two-point floor and the x-span check as vector masks → ``norm_x``,
    bin ids, ``bin_x`` and the per-bin count, sx and sxx sums

    y-side (:func:`_y_side`): gather y in that order → duplicate-x runs
    aggregated → ``mean``/``std`` → ``bin_y``, ``norm_bin_y``, the
    per-bin sy and sxy sums → one running-sum pass over all five rows

and writes the result into a struct-of-arrays :class:`Collection` whose
trendlines are zero-copy views.

**The x-side is table state.**  An unfiltered build, and one whose
filters are all *group-constant* (their column holds one value in every
z group, tested once per (z, column) against each group's first row),
reads the x-side from an LRU attached to the table: the order part keyed
by (z, x), the bin part by (z, x, bin width), bounded by
:data:`STATE_BYTES` per table.  Such filters select groups, not rows:
they are evaluated on one representative row per group, and the kept
groups' segments are gathered out of the state (:func:`_pick`), as is
push-down (a)'s span test.  Row filters, push-down (c) (``keep_span``)
and ``selected`` builds run the same two functions on their rows,
uncached.  ``Table.append_rows`` does not carry the state: a grown table
builds its own on first use.

The contract is **byte-identity** with the per-group reference
(``tests/oracles/generation.py``): every float below is produced by the
same IEEE operations in the same order that reference uses, and every
group's floats depend on that group's points only, which is what lets a
build gather its groups out of a state built over all of them.
Element-wise arithmetic is order-free, so it runs flat over all groups
at once; the three order-sensitive reductions do not:

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

import sys
from dataclasses import dataclass, field
from typing import Hashable, Iterator, List, Optional, Sequence, Tuple, Union, overload

import numpy as np

from repro.data.filters import filter_mask
from repro.data.table import Table, attached_state, canonical_group_key
from repro.data.visual_params import VisualParams
from repro.engine.cache import LRUCache
from repro.engine.pushdown import PushdownPlan
from repro.engine.statistics import PrefixStats
from repro.engine.trendline import Trendline
from repro.errors import DataError

#: Most elements one gathered block may hold.  The row-wise passes
#: (``mean``/``std``, duplicate-x aggregates, prefix sums) run over
#: consecutive groups totalling at most this many points, so generation
#: peaks at the collection plus its x-side rather than a dozen
#: table-sized temporaries.  2 MiB of float64: past the point where
#: per-call overhead matters, small enough to stay cache-friendly.
BLOCK_ELEMENTS = 1 << 18

#: Bytes of x-side state one table keeps (least recently used first
#: out).  A part larger than this is built, used and dropped.  On a
#: 96 x 128 table the (z, x) order part is 24 B per row, an unbinned
#: bin part 32 B per row and a 2-point-bin part 24 B per row
#: (``tests/test_extract_state_footprint.py``).
STATE_BYTES = 32 << 20

#: Row-wise duplicate-x aggregates (``count`` is the run length itself).
_ROW_AGGREGATES = {
    "mean": np.mean,
    "sum": np.sum,
    "min": np.min,
    "max": np.max,
    "median": np.median,
}

#: Rows of the five per-bin sums (``PrefixStats.STACKED_ROWS``) the
#: x-side holds: count, sx, sxx.  The y-side adds sy and sxy.
_X_ROWS = [0, 1, 4]

_object_id = np.frompyfunc(id, 1, 1)


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
    name.  All arrays are read-only (an unfiltered build shares its x
    arrays with the table's x-side state) and the :class:`Trendline`
    views are built once, here: the sequence hands out the same objects
    on every access, which is what lets identity-keyed memos (the shm
    session, the rank-path index) recognise it.
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


# ---------------------------------------------------------------------------
# Group-constant filters
# ---------------------------------------------------------------------------


def first_rows(table: Table, z: str) -> np.ndarray:
    """Each z group's first row, in group order (kept on the table).

    The encoding numbers keys in first-seen order, so group ``g`` first
    appears exactly where the running maximum of the codes reaches ``g``.
    """
    known = attached_state(table, "_first_rows", dict)
    rows = known.get(z)
    if rows is None:
        top = np.maximum.accumulate(table.encoding(z).codes)
        rises = np.ones(len(top), dtype=bool)
        rises[1:] = top[1:] > top[:-1]
        rows = known[z] = np.flatnonzero(rises)
    return rows


def constant_within_groups(table: Table, z: str, column: str) -> bool:
    """Does ``column`` hold one value in every z group?  (Kept on the table.)

    "One value" is the dictionary encoding's equality — ``1``, ``1.0`` and
    ``True`` are one value, and so is every NaN — under which a filter
    answers alike for every row of a group.  Number and string columns
    compare each row with its group's first row, which is that equality
    without a per-row walk (and without keeping a dictionary of every
    distinct float a row filter names).  Object columns compare their own
    encoding's codes; ``in`` meets NaNs by identity, though, so such a
    column counts only if all its NaN cells are one object.  Unhashable
    cells have no encoding: never constant.
    """
    known = attached_state(table, "_constant_columns", dict)
    constant = known.get((z, column))
    if constant is None:
        constant = known[(z, column)] = _constant_within_groups(table, z, column)
    return constant


def _constant_within_groups(table: Table, z: str, column: str) -> bool:
    values = table.column(column)
    rows, owner = first_rows(table, z), table.encoding(z).codes
    if values.dtype.kind in "biufUS":
        first = values[rows][owner]
        same = values == first
        if values.dtype.kind == "f":
            same |= np.isnan(values) & np.isnan(first)
        return bool(same.all())
    try:
        encoding = table.encoding(column)
    except TypeError:
        return False
    codes = encoding.codes
    if not np.array_equal(codes, codes[rows][owner]):
        return False
    nan = encoding.slots.get(canonical_group_key(float("nan")))
    if nan is None or values.dtype != object:
        return True
    ids = _object_id(values[codes == nan])
    return bool((ids == ids[0]).all())


def group_filter(table: Table, params: VisualParams) -> Optional[np.ndarray]:
    """Per z group (encoding order), whether it passes every filter.

    None when some filter's column is not group-constant: then the
    filters pick rows.  Otherwise each filter runs on one representative
    row per group, which answers for all of that group's rows.
    """
    if not all(constant_within_groups(table, params.z, f.column) for f in params.filters):
        return None
    rows = first_rows(table, params.z)
    columns = dict.fromkeys(f.column for f in params.filters)
    sample = Table({name: table.column(name)[rows] for name in columns})
    return filter_mask(sample, params.filters)


# ---------------------------------------------------------------------------
# The x-side
# ---------------------------------------------------------------------------


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """``[0, s0, s0 + s1, ...]`` — segment boundaries from segment sizes."""
    offsets = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def _segments(offsets: np.ndarray, chosen: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Gather index of the ``chosen`` segments back to back, and their offsets."""
    starts = offsets[chosen]
    sizes = offsets[chosen + 1] - starts
    picked = _offsets(sizes)
    return np.repeat(starts - picked[:-1], sizes) + np.arange(picked[-1]), picked


def _length_classes(
    starts: np.ndarray, lengths: np.ndarray
) -> Iterator[Tuple[np.ndarray, Union[np.ndarray, slice]]]:
    """Yield ``(members, index)`` per block of equal-length segments.

    ``index`` picks the members' elements as one ``(len(members),
    length)`` block (:func:`_gather`): a slice when the segments lie back
    to back, so the block is a view, else the gather matrix.  Either way
    each row is contiguous, so row-wise reductions round exactly like
    the 1-D call on each segment.  Blocks hold at most
    :data:`BLOCK_ELEMENTS` elements (one row at least).
    """
    # (Not np.unique: recent numpy imports the numpy.ma package on the
    # first such call — ~10 ms in every process, each forked worker's
    # first shard included.)
    for length in sorted(set(lengths.tolist())):
        members = np.flatnonzero(lengths == length)
        rows = max(1, BLOCK_ELEMENTS // max(1, length))
        for lo in range(0, len(members), rows):
            part = members[lo : lo + rows]
            first, last = int(starts[part[0]]), int(starts[part[-1]])
            if last - first == (len(part) - 1) * length:
                yield part, slice(first, last + length)
            else:
                yield part, starts[part][:, None] + np.arange(length)


def _gather(values: np.ndarray, members: np.ndarray, index: Union[np.ndarray, slice]) -> np.ndarray:
    """The ``(..., len(members), length)`` block ``index`` picks from the last axis."""
    if isinstance(index, slice):
        length = (index.stop - index.start) // len(members)
        return values[..., index].reshape(values.shape[:-1] + (len(members), length))
    return np.take(values, index, axis=-1)


def _cumulative(sums: np.ndarray, bins: np.ndarray, out: np.ndarray) -> None:
    """Per group running sums of ``sums``' rows into ``out`` (zeroed).

    Group g's cumulative row starts one column right of its bins'
    position for every group before it: the leading zeros.  One pass
    over all five rows, so ragged groups pay the per-length-class loop
    once per build.
    """
    for members, index in _length_classes(_offsets(bins)[:-1], bins):
        block = _gather(sums, members, index)
        if isinstance(index, slice):
            # Back-to-back bins have back-to-back columns, a zero apart.
            window = out[:, index.start + int(members[0]) : index.stop + int(members[-1]) + 1]
            rows = window.reshape(len(out), len(members), block.shape[-1] + 1)
            np.cumsum(block, axis=-1, out=rows[:, :, 1:])
        else:
            out[:, index + members[:, None] + 1] = np.cumsum(block, axis=-1)


def _read_only(state: object) -> None:
    for value in vars(state).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)


def _nbytes(state: object) -> int:
    arrays = {id(value): value for value in vars(state).values() if isinstance(value, np.ndarray)}
    return sum(array.nbytes for array in arrays.values())


@dataclass(eq=False)
class _Order:
    """The x-side a bin width does not change: which rows, in which order.

    ``groups`` are the ids (into ``keys``) of the groups that keep a
    series: two distinct x at least, spanning something.  ``rows`` are
    their table rows sorted stably on (group, x), ``row_offsets``
    delimits them; ``runs`` is each point's first position in ``rows``
    (its duplicate-x run), None when every x is distinct.  ``x`` and
    ``norm_x`` are per point, ``point_offsets`` delimits them.
    """

    keys: List[Hashable]
    groups: np.ndarray
    rows: np.ndarray
    row_offsets: np.ndarray
    runs: Optional[np.ndarray]
    point_offsets: np.ndarray
    x: np.ndarray
    norm_x: np.ndarray

    @property
    def nbytes(self) -> int:
        return _nbytes(self)


@dataclass(eq=False)
class _Bins:
    """The x-side of one bin width: bin ids, ``bin_x`` and per-bin sums.

    ``binned`` are the points inside a bin (None: all) and ``bin_id``
    each such point's bin (None: point i is bin i).  ``offset`` is each
    group's first materialised bin (push-down (c)) and ``sums`` the
    count, sx and sxx of every bin (:data:`_X_ROWS`).
    """

    binned: Optional[np.ndarray]
    bin_id: Optional[np.ndarray]
    bin_offsets: np.ndarray
    offset: np.ndarray
    bin_x: np.ndarray
    sums: np.ndarray

    @property
    def nbytes(self) -> int:
        return _nbytes(self)


def _order(
    table: Table, x_name: str, rows: Optional[np.ndarray], gid: np.ndarray, keys: List[Hashable]
) -> _Order:
    """Sort the rows (None: all) of groups ``gid`` on x and drop dead groups."""
    x = table.column(x_name)
    if rows is not None:
        x = x[rows]
    x = x.astype(float, copy=False)
    # Stable on both keys: a group's rows keep their table order among
    # equal x, which fixes the order duplicate-x aggregates see them in.
    order = np.lexsort((x, gid))
    gid, x = gid[order], x[order]
    rows = order if rows is None else rows[order]
    del order
    # Rows sharing an x value are one contiguous run (all NaN x of a
    # group collapse into one, as ``np.unique`` does); a point per run.
    same = (gid[1:] == gid[:-1]) & ((x[1:] == x[:-1]) | (np.isnan(x[1:]) & np.isnan(x[:-1])))
    runs = np.flatnonzero(np.concatenate(([True], ~same))) if same.any() else None
    point_gid, points = (gid, x) if runs is None else (gid[runs], x[runs])
    sizes = np.bincount(point_gid, minlength=len(keys))
    ends = np.cumsum(sizes)
    alive = sizes >= 2
    alive[alive] = ~(points[ends[alive] - 1] - points[ends[alive] - sizes[alive]] <= 0)
    groups = np.flatnonzero(alive)
    if len(groups) < len(keys):
        kept = alive[gid]
        rows = rows[kept]
        if runs is not None:
            runs = (np.cumsum(kept) - 1)[runs[alive[point_gid]]]
        points, sizes = points[alive[point_gid]], sizes[groups]
    if runs is not None and len(runs) == len(rows):
        runs = None
    del gid, x, point_gid
    point_offsets = _offsets(sizes)
    row_offsets = point_offsets if runs is None else np.append(runs[point_offsets[:-1]], len(rows))
    starts = point_offsets[:-1]
    owner = np.repeat(np.arange(len(sizes)), sizes)
    first_x = points[starts]
    x_span = points[starts + sizes - 1] - first_x
    # Normalised coordinates use the whole series, whatever is binned.
    norm_x = (points - first_x[owner]) / x_span[owner]
    return _Order(keys, groups, rows, row_offsets, runs, point_offsets, points, norm_x)


def _bins(
    order: _Order, bin_width: Optional[float], keep_span: Optional[Tuple[float, float]]
) -> _Bins:
    """GROUP's x-side: bin assignment, ``bin_x`` and the count/sx/sxx sums."""
    x, sizes = order.x, np.diff(order.point_offsets)
    count, starts = len(sizes), order.point_offsets[:-1]
    gid = np.repeat(np.arange(count), sizes)
    # Bin assignment: one bin per point, or fixed-width bins renumbered to
    # consecutive ids so empty bins do not appear.  ``bin_id`` numbers the
    # bins of all groups consecutively.
    offset = np.zeros(count, dtype=np.intp)
    binned: Optional[np.ndarray] = None
    bin_id: Optional[np.ndarray] = None
    if bin_width is None or bin_width <= 0:
        bins = sizes
        if keep_span is not None and bin_width is None:
            # Push-down (c): statistics only over the pinned x range, when
            # it leaves at least two bins; the raw points stay whole.
            low = np.bincount(gid[x < keep_span[0]], minlength=count)
            high = np.bincount(gid[x <= keep_span[1]], minlength=count)
            narrowed = high - low >= 2
            offset = np.where(narrowed, low, 0)
            bins = np.where(narrowed, high - low, sizes)
            local = np.arange(len(x)) - (starts + offset)[gid]
            binned = np.flatnonzero((local >= 0) & (local < bins[gid]))
            bin_id = _offsets(bins)[gid[binned]] + local[binned]
    else:
        raw = np.floor((x - x[starts][gid]) / bin_width).astype(int)
        ranks: Union[slice, np.ndarray] = slice(None)
        if ((raw[1:] < raw[:-1]) & (gid[1:] == gid[:-1])).any():
            # A non-finite x casts to the lowest integer: its bin ranks
            # first although the point sorts last.  Rank by value.
            ranks = np.lexsort((raw, gid))
        ranked, owner = raw[ranks], gid[ranks]
        fresh = np.ones(len(x), dtype=bool)
        fresh[1:] = (ranked[1:] != ranked[:-1]) | (owner[1:] != owner[:-1])
        bins = np.bincount(owner[fresh], minlength=count)
        bin_id = np.empty(len(x), dtype=np.intp)
        bin_id[ranks] = np.cumsum(fresh) - 1
    del gid
    # Per-bin sums: bincount accumulates in array order, exactly as the
    # per-group call does on each group's points.
    total = int(bins.sum())
    ids = np.arange(total) if bin_id is None else bin_id
    x, norm_x = (x, order.norm_x) if binned is None else (x[binned], order.norm_x[binned])
    sums = np.empty((len(_X_ROWS), total))
    sums[0] = np.bincount(ids, minlength=total)
    sums[1] = np.bincount(ids, weights=norm_x, minlength=total)
    sums[2] = np.bincount(ids, weights=norm_x * norm_x, minlength=total)
    bin_x = np.bincount(ids, weights=x, minlength=total) / sums[0]
    return _Bins(binned, bin_id, _offsets(bins), offset, bin_x, sums)


def _in_spans(order: _Order, spans: Sequence[Tuple[float, float]]) -> np.ndarray:
    """Push-down (a): per group, does it have a point inside every span?"""
    inside = np.ones(len(order.groups), dtype=bool)
    if spans:
        sizes = np.diff(order.point_offsets)
        gid = np.repeat(np.arange(len(sizes)), sizes)
        for low, high in spans:
            hits = gid[(order.x >= low) & (order.x <= high)]
            inside &= np.bincount(hits, minlength=len(sizes)) > 0
    return inside


def _pick(
    order: _Order, keep: np.ndarray, groups: np.ndarray, keys: List[Hashable]
) -> Tuple[_Order, np.ndarray]:
    """The order part of the groups ``keep`` marks, renamed ``groups`` of ``keys``.

    Gathers each kept group's segment of every array (run ids shift by
    the rows the dropped groups before them held) and returns the
    gathered points' old positions beside it, for :func:`_pick_bins`.
    """
    chosen = np.flatnonzero(keep)
    points, point_offsets = _segments(order.point_offsets, chosen)
    runs = order.runs
    if runs is None:
        rows, row_offsets = order.rows[points], point_offsets
    else:
        taken, row_offsets = _segments(order.row_offsets, chosen)
        rows = order.rows[taken]
        shift = order.row_offsets[chosen] - row_offsets[:-1]
        runs = runs[points] - np.repeat(shift, np.diff(point_offsets))
    picked = _Order(
        keys, groups, rows, row_offsets, runs, point_offsets, order.x[points], order.norm_x[points]
    )
    return picked, points


def _pick_bins(bins: _Bins, keep: np.ndarray, points: np.ndarray, sizes: np.ndarray) -> _Bins:
    """The bin part of the groups ``keep`` marks (``bins`` bins every point).

    ``points`` are the kept points' old positions and ``sizes`` the kept
    groups' point counts; bin ids shift like :func:`_pick`'s run ids.
    """
    chosen = np.flatnonzero(keep)
    cells, bin_offsets = _segments(bins.bin_offsets, chosen)
    bin_id = bins.bin_id
    if bin_id is not None:
        shift = bins.bin_offsets[chosen] - bin_offsets[:-1]
        bin_id = bin_id[points] - np.repeat(shift, sizes)
    return _Bins(
        None,
        bin_id,
        bin_offsets,
        bins.offset[chosen],
        bins.bin_x[cells],
        np.take(bins.sums, cells, axis=1),
    )


def _table_state(table: Table, params: VisualParams) -> Tuple[_Order, _Bins]:
    """The unfiltered x-side of ``params``, from (or into) the table's LRU."""
    state = attached_state(
        table,
        "_extract_state",
        # Every part costs a byte at least: only the byte budget binds.
        lambda: LRUCache(capacity=sys.maxsize, max_bytes=STATE_BYTES),
    )
    # Every width :func:`_bins` treats as "no binning" shares one key.
    width = None if params.bin_width is None or params.bin_width <= 0 else params.bin_width
    order = state.get((params.z, params.x))
    if order is None:
        encoding = table.encoding(params.z)
        order = _order(table, params.x, None, encoding.codes, encoding.keys)
        _read_only(order)
        state.put((params.z, params.x), order, order.nbytes)
    bins = state.get((params.z, params.x, width))
    if bins is None:
        bins = _bins(order, width, None)
        _read_only(bins)
        state.put((params.z, params.x, width), bins, bins.nbytes)
    return order, bins


# ---------------------------------------------------------------------------
# The y-side
# ---------------------------------------------------------------------------


def _collapse_runs(
    raw: np.ndarray, runs: np.ndarray, gid: np.ndarray, groups: int, aggregate: str
) -> np.ndarray:
    """One y per duplicate-x run, aggregated.

    Each run is reduced once, not once per distinct x over the whole
    group.  A group with no duplicate keeps its y values untouched; a
    group with any has *every* run aggregated — singleton runs included,
    which is what turns them into 1.0 under ``count``.
    """
    length = np.diff(np.append(runs, len(raw)))
    has_duplicates = np.zeros(groups, dtype=bool)
    has_duplicates[gid[length > 1]] = True
    touched = np.flatnonzero(has_duplicates[gid])
    collapsed = raw[runs]
    if aggregate == "count":
        collapsed[touched] = length[touched]
    else:
        reduce = _ROW_AGGREGATES[aggregate]
        for members, index in _length_classes(runs[touched], length[touched]):
            collapsed[touched[members]] = reduce(_gather(raw, members, index), axis=1)
    return collapsed


def _y_side(
    table: Table, params: VisualParams, normalize_y: bool, order: _Order, bins: _Bins
) -> Collection:
    """Gather y in the x-side's order and finish the :class:`Collection`."""
    y = table.column(params.y)[order.rows].astype(float, copy=False)
    sizes = np.diff(order.point_offsets)
    count, starts = len(sizes), order.point_offsets[:-1]
    gid = np.repeat(np.arange(count), sizes)
    if order.runs is not None:
        y = _collapse_runs(y, order.runs, gid, count, params.aggregate)
    y_mean, y_std = np.zeros(count), np.ones(count)
    if normalize_y:
        for members, index in _length_classes(starts, sizes):
            block = _gather(y, members, index)
            y_mean[members] = block.mean(axis=1)
            y_std[members] = block.std(axis=1)
        y_std[y_std < 1e-12] = 1.0
    norm_y = (y - y_mean[gid]) / y_std[gid]
    del gid
    norm_x = order.norm_x
    binned_y = y
    if bins.binned is not None:
        binned_y, norm_x, norm_y = y[bins.binned], norm_x[bins.binned], norm_y[bins.binned]
    total = len(bins.bin_x)
    ids = np.arange(total) if bins.bin_id is None else bins.bin_id
    bin_y = np.bincount(ids, weights=binned_y, minlength=total) / bins.sums[0]
    owner = np.repeat(np.arange(count), np.diff(bins.bin_offsets))
    norm_bin_y = (bin_y - y_mean[owner]) / y_std[owner]
    sums = np.empty((len(PrefixStats.STACKED_ROWS), total))
    sums[_X_ROWS] = bins.sums
    sums[2] = np.bincount(ids, weights=norm_y, minlength=total)
    sums[3] = np.bincount(ids, weights=norm_x * norm_y, minlength=total)
    prefix = np.zeros((len(sums), total + count))
    _cumulative(sums, np.diff(bins.bin_offsets), prefix)
    return Collection(
        group_keys=list(order.keys),
        groups=order.groups,
        point_offsets=order.point_offsets,
        bin_offsets=bins.bin_offsets,
        x=order.x,
        y=y,
        bin_x=bins.bin_x,
        bin_y=bin_y,
        norm_bin_y=norm_bin_y,
        prefix=prefix,
        y_mean=y_mean,
        y_std=y_std,
        offset=bins.offset,
    )


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
    spans = plan.required_spans if plan is not None else ()
    keep_span = plan.keep_span if plan is not None else None
    passing: Optional[np.ndarray] = None  # per z group: passes the filters
    cached = selected is None and keep_span is None
    if cached and params.filters:
        passing = group_filter(table, params)
        cached = passing is not None
    if cached:
        order, bins = _table_state(table, params)
        keep = _in_spans(order, spans)
        keys, groups = order.keys, order.groups
        if passing is not None and not passing.all():
            keep &= passing[groups]
            keys = [keys[code] for code in np.flatnonzero(passing).tolist()]
            groups = (np.cumsum(passing) - 1)[groups]
        if not keep.all() or len(keys) < len(order.keys):
            order, points = _pick(order, keep, groups[keep], keys)
            bins = _pick_bins(bins, keep, points, np.diff(order.point_offsets))
        return _y_side(table, params, normalize_y, order, bins)
    rows, gid, keys = grouping(table, params)
    if selected is not None:
        chosen = np.asarray(selected, dtype=np.intp)
        wanted = np.zeros(len(keys), dtype=bool)
        wanted[chosen[chosen < len(keys)]] = True
        picked_rows = np.flatnonzero(wanted[gid])
        gid = gid[picked_rows]
        rows = picked_rows if rows is None else rows[picked_rows]
    order = _order(table, params.x, rows, gid, keys)
    keep = _in_spans(order, spans)
    if not keep.all():
        order, _ = _pick(order, keep, order.groups[keep], keys)
    return _y_side(table, params, normalize_y, order, _bins(order, params.bin_width, keep_span))
