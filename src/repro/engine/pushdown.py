"""Early pruning via push-down optimizations (paper §5.4).

Three optimizations move work up the pipeline:

(a) **LOCATION → EXTRACT**: visualizations with no data inside a pinned
    x range of the query are dropped before GROUP ever sees them.
(b) **Eager pinned-pattern checks → SEGMENT**: a pinned up/down
    ShapeSegment is scored first; when every alternative chain has such
    a segment scoring negative, the visualization is discarded before
    any fuzzy segmentation happens.
(c) **Range restriction → GROUP**: when every segment of the query is
    pinned, summarized statistics are materialized only over the union
    of the pinned x ranges (raw values are kept for plotting).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.engine.chains import Chain, CompiledQuery
from repro.engine.trendline import Trendline
from repro.engine.units import SlopeUnit


def chain_statically_bounded(chain: Chain) -> bool:
    """Does every unit of ``chain`` have a static score upper bound?

    Slope and line scores never exceed 1.0, so chains built purely from
    them can be bounded without running any segmentation — the shared
    gate of :func:`eager_upper_bound` and the shape index's
    :func:`~repro.engine.shape_index.index_supports`.  Unit types
    without a static bound (UDPs, windows, AND groups, ...) disqualify
    the whole chain.
    """
    from repro.engine.units import LineUnit

    return all(isinstance(cu.unit, (SlopeUnit, LineUnit)) for cu in chain.units)


@dataclass
class PushdownPlan:
    """Static query analysis shared by the pipeline operators."""

    #: Pinned x spans; EXTRACT requires data inside each (optimization a).
    required_spans: List[Tuple[float, float]] = field(default_factory=list)
    #: x span to materialize statistics for, when fully pinned (c).
    keep_span: Optional[Tuple[float, float]] = None
    #: Whether any chain carries a pinned directional unit (enables b).
    has_eager_checks: bool = False


def plan_pushdown(query: CompiledQuery) -> PushdownPlan:
    """Derive the push-down plan from a compiled query."""
    plan = PushdownPlan()
    spans: List[Tuple[float, float]] = []
    fully_pinned = True
    for chain in query.chains:
        for cu in chain.units:
            loc = cu.unit.location
            if loc.is_x_pinned:
                spans.append((loc.x_start, loc.x_end))
                if isinstance(cu.unit, SlopeUnit) and cu.unit.kind in ("up", "down"):
                    plan.has_eager_checks = True
            else:
                fully_pinned = False
    # Deduplicate while preserving order.
    seen = set()
    for span in spans:
        if span not in seen:
            seen.add(span)
            plan.required_spans.append(span)
    if fully_pinned and spans:
        plan.keep_span = (min(s for s, _ in spans), max(e for _, e in spans))
    return plan


def eager_discard(trendline: Trendline, query: CompiledQuery) -> bool:
    """Push-down (b): the paper's eager pinned-pattern predicate.

    A chain *fails* when one of its pinned up/down segments scores
    negative at its pinned bins; the visualization is discarded only if
    every alternative chain fails (chains without pinned directional
    segments never fail here).

    .. note:: As a hard filter this can produce top-k *false negatives*
       (a candidate with one contradicted pinned segment may still
       out-score the k-th best candidate overall), so the execution
       engine instead uses :func:`eager_upper_bound` against its running
       top-k floor — same early exit, provably exact.  This predicate is
       kept as the paper-faithful formulation.
    """
    any_chain_viable = False
    for chain in query.chains:
        chain_fails = False
        for cu in chain.units:
            unit = cu.unit
            if not (isinstance(unit, SlopeUnit) and unit.kind in ("up", "down")):
                continue
            if not unit.location.is_x_pinned:
                continue
            start, end = unit.resolve_pins(trendline)
            if unit.score(trendline, start, end) <= 0.0:
                chain_fails = True
                break
        if not chain_fails:
            any_chain_viable = True
            break
    return not any_chain_viable


def eager_upper_bound(trendline: Trendline, query: CompiledQuery) -> float:
    """Optimistic score bound from pinned directional segments (exact (b)).

    Every pinned up/down SlopeUnit's final placement is fixed at its
    ``resolve_pins`` bins, so its exact contribution is known before any
    fuzzy segmentation runs; every other unit in a chain of statically
    bounded unit types (slope/line scores never exceed 1.0) contributes
    at most its weight.  The query bound is the max over chains.  Chains
    containing unit types without a static bound (UDPs, windows, AND
    groups, ...) yield ``inf`` — never discarded on their account.

    The caller discards a candidate only when this bound cannot beat its
    current top-k floor, which preserves the exact top-k: unlike
    :func:`eager_discard`, a contradicted pinned segment alone is not
    disqualifying.

    This runs once per candidate in the shard hot loop, so the pinned
    units' slope fits ride the batched prefix kernel: every distinct
    pinned directional unit across all chains is fitted in one
    :meth:`~repro.engine.statistics.PrefixStats.slopes_pairs` call
    (bitwise-equal to the scalar slope path), and units shared between
    OR-alternative chains are scored once.
    """
    for chain in query.chains:
        if not chain_statically_bounded(chain):
            return float("inf")

    pinned = {}  # id(unit) -> (unit, start bin, end bin)
    for chain in query.chains:
        for cu in chain.units:
            unit = cu.unit
            if (
                isinstance(unit, SlopeUnit)
                and unit.kind in ("up", "down")
                and unit.location.is_x_pinned
                and id(unit) not in pinned
            ):
                start, end = unit.resolve_pins(trendline)
                pinned[id(unit)] = (unit, start, end)
    if not pinned:
        return float("inf")

    entries = list(pinned.values())
    scores = {}
    if len(entries) <= 2:
        # Scalar fast path: for the typical one-or-two-pin query the
        # allocation-free scalar score beats building 1-2 element arrays.
        for unit, start, end in entries:
            scores[id(unit)] = unit.score_with_slope(trendline, start, end)
    else:
        slopes = trendline.prefix.slopes_pairs(
            np.array([start for _unit, start, _end in entries]),
            np.array([end for _unit, _start, end in entries]),
        )
        for (unit, start, end), slope in zip(entries, slopes):
            scores[id(unit)] = unit.score_with_slope(
                trendline, start, end, float(slope)
            )

    best = -float("inf")
    for chain in query.chains:
        chain_bound = 0.0
        for cu in chain.units:
            unit_score = scores.get(id(cu.unit))
            if unit_score is not None:
                chain_bound += cu.weight * min(1.0, unit_score)
            else:
                chain_bound += cu.weight
        best = max(best, chain_bound)
    return best
