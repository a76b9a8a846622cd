"""Per-group EXTRACT / GROUP: the reference the block kernel must match.

This is the code path ``repro.engine.pipeline`` shipped before the
columnar kernel (``repro.engine.collection``) replaced it — one numpy
chain per group, one Python step per row in ``group_by`` — kept as the
byte-identity oracle: the kernel's contract is to reproduce these floats
bit for bit.  Nothing here is fast, on purpose (the duplicate-x
aggregation is the original O(unique · n) mask loop).  One line differs
from what shipped; see the comment in :func:`_extract_stream`.
"""

from typing import Dict, Hashable, Iterator, List, Optional, Tuple

import numpy as np

from repro.data.filters import apply_filters
from repro.data.table import NAN_POLICIES, Table, canonical_group_key
from repro.data.visual_params import VisualParams
from repro.engine.pushdown import PushdownPlan
from repro.engine.trendline import Trendline, build_trendline
from repro.errors import DataError

_AGGREGATES = {
    "mean": np.mean,
    "sum": np.sum,
    "min": np.min,
    "max": np.max,
    "count": len,
    "median": np.median,
}


def has_required_data(x_values: np.ndarray, spans: List[Tuple[float, float]]) -> bool:
    """Push-down (a): does the group have data inside every pinned span?"""
    for lo, hi in spans:
        inside = (x_values >= lo) & (x_values <= hi)
        if not inside.any():
            return False
    return True


def group_by(
    table: Table, name: str, nan_policy: str = "coalesce"
) -> Iterator[Tuple[Hashable, np.ndarray]]:
    """``Table.group_by`` as the per-row dict walk it used to be."""
    if nan_policy not in NAN_POLICIES:
        raise DataError("unknown nan_policy {!r}".format(nan_policy))
    seen: Dict[Hashable, int] = {}
    buckets: List[List[int]] = []
    keys: List[Hashable] = []
    for index, value in enumerate(table.column(name).tolist()):
        if isinstance(value, float) and value != value:
            if nan_policy == "drop":
                continue
            value = canonical_group_key(value)
        slot = seen.get(value)
        if slot is None:
            seen[value] = len(buckets)
            buckets.append([index])
            keys.append(value)
        else:
            buckets[slot].append(index)
    for key, bucket in zip(keys, buckets):
        yield key, np.asarray(bucket)


def _extract_stream(filtered, params, key, indices, plan, aggregate):
    """EXTRACT for one group: ``(key, sorted x, aggregated y)`` or None."""
    x = filtered.column(params.x)[indices].astype(float)
    y = filtered.column(params.y)[indices].astype(float)
    order = np.argsort(x, kind="stable")
    x, y = x[order], y[order]
    if plan is not None and plan.required_spans and not has_required_data(
        x, plan.required_spans
    ):
        return None
    # return_index makes np.unique sort stably, so a duplicated x of
    # mixed sign (-0.0 beside 0.0) is represented by its first-seen row.
    # The shipped code left that pick to numpy's unstable default sort —
    # the one float here that depended on the platform, not on the data.
    unique_x, _first, inverse = np.unique(x, return_index=True, return_inverse=True)
    if len(unique_x) != len(x):
        aggregated = np.empty(len(unique_x))
        for slot in range(len(unique_x)):
            aggregated[slot] = aggregate(y[inverse == slot])
        x, y = unique_x, aggregated
    if len(x) < 2:
        return None
    return key, x, y


def _group_stream(key, x, y, params, normalize_y, plan) -> Optional[Trendline]:
    """GROUP for one stream: build the Trendline (or None when degenerate)."""
    keep_range = None
    if plan is not None and plan.keep_span is not None:
        lo_x, hi_x = plan.keep_span
        lo_bin = int(np.searchsorted(x, lo_x, side="left"))
        hi_bin = int(np.searchsorted(x, hi_x, side="right"))
        if params.bin_width is None and hi_bin - lo_bin >= 2:
            keep_range = (lo_bin, hi_bin)
    try:
        return build_trendline(
            key,
            x,
            y,
            bin_width=params.bin_width,
            normalize_y=normalize_y,
            keep_range=keep_range,
        )
    except DataError:
        return None


def extract(
    table: Table,
    params: VisualParams,
    plan: Optional[PushdownPlan] = None,
) -> Iterator[Tuple[Hashable, np.ndarray, np.ndarray]]:
    """EXTRACT: stream ``(z value, sorted x, aggregated y)`` per group.

    Duplicate x values inside a group are collapsed with the configured
    aggregate (the paper's Real-Estate case).  Push-down (a) skips groups
    lacking data in any pinned x span of the query.
    """
    for name in (params.z, params.x, params.y):
        if name not in table:
            raise DataError(
                "visual parameter column {!r} not in table (columns: {})".format(
                    name, table.column_names
                )
            )
    filtered = apply_filters(table, params.filters)
    aggregate = _AGGREGATES[params.aggregate]
    for key, indices in group_by(filtered, params.z):
        stream = _extract_stream(filtered, params, key, indices, plan, aggregate)
        if stream is not None:
            yield stream


def group(
    streams: Iterator[Tuple[Hashable, np.ndarray, np.ndarray]],
    params: VisualParams,
    normalize_y: bool = True,
    plan: Optional[PushdownPlan] = None,
) -> Iterator[Trendline]:
    """GROUP: build one Trendline per z value."""
    for key, x, y in streams:
        trendline = _group_stream(key, x, y, params, normalize_y, plan)
        if trendline is not None:
            yield trendline


def generate_trendlines(
    table: Table,
    params: VisualParams,
    normalize_y: bool = True,
    plan: Optional[PushdownPlan] = None,
) -> List[Trendline]:
    """EXTRACT ∘ GROUP, one group at a time."""
    return list(group(extract(table, params, plan), params, normalize_y, plan))


def generate_pairs(
    table: Table,
    params: VisualParams,
    normalize_y: bool = True,
    plan: Optional[PushdownPlan] = None,
) -> List[Tuple[int, Trendline]]:
    """``(group index, trendline)`` for every group that yields one."""
    filtered = apply_filters(table, params.filters)
    aggregate = _AGGREGATES[params.aggregate]
    pairs = []
    for index, (key, rows) in enumerate(group_by(filtered, params.z)):
        stream = _extract_stream(filtered, params, key, rows, plan, aggregate)
        if stream is None:
            continue
        trendline = _group_stream(*stream, params=params, normalize_y=normalize_y, plan=plan)
        if trendline is not None:
            pairs.append((index, trendline))
    return pairs
