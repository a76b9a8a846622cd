"""Per-candidate shape-index bounds: the reference the batched kernel must match.

The scalar bound ``repro.engine.shape_index`` shipped beside its
block-batched kernel — one candidate, one pyramid level, one chain at a
time, every unit bounded over its whole ``(W, W)`` bucket matrix with
both atan endpoints transformed and the empty-bucket sentinels
substituted by zeros, and the max-plus step written as one broadcast
``np.max`` — kept as the byte-identity oracle: ``upper_bounds`` must
return these floats bit for bit, including the coarse-level early exit
under a bounded floor.  Nothing
here is fast, on purpose.
"""

import math
from typing import Optional

import numpy as np

from repro.engine import scoring
from repro.engine.chains import Chain, CompiledQuery
from repro.engine.shape_index import (
    ShapeIndex,
    _constant_upper,
    _unit_key,
    _unit_widths,
    survives_floor,
)


def unit_upper(unit, amin: np.ndarray, amax: np.ndarray, shared: dict) -> np.ndarray:
    """(W, W) upper bound on one unit's score over each bucket's segments.

    For up/down the Table 5 score is monotone in the atan, so the
    endpoint maximum is exact; flat/θ scores additionally peak at 1.0
    when the bucket's atan interval straddles the target (for a negated
    flat/θ the peak is a trough, so the endpoint maximum stays exact).
    ``any``/``empty`` and line units score constants ≤ 1.0.  y-location
    masks only ever lower scores, so they need no handling in an upper
    bound.  Empty-bucket sentinels are substituted before the transform
    and re-masked by the caller.
    """
    constant = _constant_upper(unit)
    if constant is not None:
        return np.full(amin.shape, constant)
    empty = shared["empty"]
    a_lo = shared.get("a_lo")
    if a_lo is None:
        a_lo = shared["a_lo"] = np.where(empty, 0.0, amin)
        shared["a_hi"] = np.where(empty, 0.0, amax)
    a_hi = shared["a_hi"]
    score_lo = scoring.pattern_score_from_atan(unit.kind, a_lo, unit.theta)
    score_hi = scoring.pattern_score_from_atan(unit.kind, a_hi, unit.theta)
    if unit.negated:
        score_lo, score_hi = -score_lo, -score_hi
    upper = np.maximum(score_lo, score_hi)
    if not unit.negated and unit.kind in ("flat", "slope"):
        target = 0.0 if unit.kind == "flat" else math.radians(unit.theta)
        upper = np.where((a_lo < target) & (target < a_hi), 1.0, upper)
    return upper


def chain_level_bound(
    n_bins: int,
    chain: Chain,
    w: int,
    amin: np.ndarray,
    amax: np.ndarray,
    shared: dict,
) -> float:
    """Bound one chain's best full-cover score from one pyramid level.

    Max-plus DP over (start super-bin, end super-bin) bucket bounds:
    the first unit starts at bin 0 (super-bin 0), the last ends at bin
    ``n`` (super-bin W−1), and consecutive units share their boundary
    bin — so the next start super-bin is the previous end super-bin or
    its successor.  Buckets that are empty, inverted, or too narrow to
    host the unit's minimum width (``_unit_widths``) are −inf.
    """
    W = amin.shape[0]
    grid = np.arange(W)
    span = (grid[None, :] - grid[:, None] + 1) * w
    blocked = shared["empty"] | (grid[:, None] > grid[None, :])
    memo = shared.setdefault("units", {})
    state: Optional[np.ndarray] = None
    for cu, width in zip(chain.units, _unit_widths(n_bins, len(chain.units))):
        key = _unit_key(cu.unit)
        upper = memo.get(key)
        if upper is None:
            upper = memo[key] = unit_upper(cu.unit, amin, amax, shared)
        weighted = np.where(blocked | (span < width), -np.inf, cu.weight * upper)
        if state is None:
            state = weighted[0, :].copy()
            continue
        reach = state.copy()
        reach[1:] = np.maximum(state[1:], state[:-1])
        state = np.max(reach[:, None] + weighted, axis=0)
    return float(state[W - 1])


def level_bound(entry, level, query: CompiledQuery) -> float:
    """One candidate's bound from one pyramid level (max over chains, ≥ −1)."""
    w, amin, amax = level
    shared: dict = {"empty": np.isinf(amin)}
    return max(
        [-1.0]
        + [
            chain_level_bound(entry.n_bins, chain, w, amin, amax, shared)
            for chain in query.chains
        ]
    )


def upper_bound(
    index: ShapeIndex, position: int, query: CompiledQuery, floor: float = -math.inf
) -> float:
    """Upper bound on ``query``'s score for candidate ``position``.

    Levels are consulted coarse → fine, each tightening the bound (min
    over levels), stopping early once the candidate can no longer reach
    ``floor`` — the returned value is always a valid upper bound, and
    the ``survives_floor`` verdict on it is final.  Unindexed candidates
    bound at ``+inf`` (never pruned).
    """
    entry = index.entries[position]
    if entry is None:
        return math.inf
    bound = math.inf
    for level in reversed(entry.levels):
        bound = max(-1.0, min(bound, level_bound(entry, level, query)))
        if not survives_floor(bound, floor):
            break
    return float(bound)


def upper_bounds(index: ShapeIndex, query: CompiledQuery, floor: float = -math.inf):
    """:func:`upper_bound` for every candidate, as a float64 vector."""
    return np.array(
        [upper_bound(index, position, query, floor) for position in range(len(index))],
        dtype=np.float64,
    )
