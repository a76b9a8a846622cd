"""Per-trendline shape-index build: the reference the tiled build must match.

This is the sweep ``repro.engine.shape_index`` shipped before the
class-batched kernel replaced it — one trendline at a time, one
:meth:`PrefixStats.slope_matrix` call per start super-bin, a 2-D
pairwise coarsening — kept as the byte-identity oracle: the kernel's
contract is to reproduce every bucket of every level bit for bit, and
the same packed block.  Nothing here is fast, on purpose.

:func:`build_levels` yields the exact float64 atan extremes.  The index
stores each as float32 rounded outward — a minimum as the largest
float32 ≤ it, a maximum as the smallest float32 ≥ it — which
:func:`round_down`/:func:`round_up` compute here by stepping float32 bit
patterns as ordered integers, independently of the engine's
``np.nextafter``.  :func:`stored` and :func:`pack` apply them.
"""

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.table import canonical_group_key
from repro.engine.shape_index import MAX_SUPER_BINS, MIN_SUPER_BINS, _atan_buckets
from repro.engine.trendline import Trendline
from repro.engine.units import MIN_SEGMENT_BINS

Level = Tuple[int, np.ndarray, np.ndarray]

_SIGN = 0x80000000


def _ordered(values: np.ndarray) -> np.ndarray:
    """float32 values → int64 keys that sort as the floats do (±0 → 0).

    IEEE floats are sign-magnitude: a non-negative float's bits already
    count up with its value, and a negative one's magnitude bits count
    up as it falls, so negating them gives one integer line.
    """
    bits = values.view(np.uint32).astype(np.int64)
    return np.where(bits >= _SIGN, _SIGN - bits, bits)


def _from_ordered(keys: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_ordered`; a zero key takes the sign of ``sign``."""
    floats = np.where(keys < 0, _SIGN - keys, keys).astype(np.uint32).view(np.float32)
    return np.where(keys == 0, np.copysign(floats, sign), floats)


def _step(values: np.ndarray, outward, direction: int) -> np.ndarray:
    """The nearest float32 of ``values``, one float32 on where it lies ``outward``.

    ``outward(nearest, value)`` is the comparison that says the nearest
    float32 rounded the wrong way; ``direction`` is the step, −1 or +1.
    """
    near = values.astype(np.float32)
    stepped = _from_ordered(_ordered(near) + direction, near)
    return np.where(outward(near.astype(np.float64), values), stepped, near)


def round_down(values: np.ndarray) -> np.ndarray:
    """The largest float32 ≤ each float64 value (±inf and NaN kept)."""
    return _step(values, np.greater, -1)


def round_up(values: np.ndarray) -> np.ndarray:
    """The smallest float32 ≥ each float64 value (±inf and NaN kept)."""
    return _step(values, np.less, 1)


def stored(levels: Optional[List[Level]]) -> Optional[List[Level]]:
    """A pyramid as the index holds it: rounded outward, widened back to float64."""
    if levels is None:
        return None
    return [
        (w, round_down(amin).astype(np.float64), round_up(amax).astype(np.float64))
        for w, amin, amax in levels
    ]


def _pair_combine(matrix: np.ndarray, fill: float, op) -> np.ndarray:
    """Exact one-level coarsening: 2×2 block reduce with sentinel padding."""
    size = matrix.shape[0]
    if size % 2:
        matrix = np.pad(matrix, ((0, 1), (0, 1)), constant_values=fill)
    rows = op(matrix[0::2, :], matrix[1::2, :])
    return op(rows[:, 0::2], rows[:, 1::2])


def _finest_level(trendline: Trendline, w: int, W: int) -> Tuple[np.ndarray, np.ndarray]:
    """Min/max fitted slope per (start super-bin, end super-bin) bucket."""
    prefix = trendline.prefix
    n = trendline.n_bins
    ends = np.arange(n + 1)
    smin = np.empty((W, n), dtype=float)
    smax = np.empty((W, n), dtype=float)
    for a in range(W):
        starts = np.arange(a * w, min((a + 1) * w, n))
        block = np.asarray(prefix.slope_matrix(starts, ends), dtype=float)
        valid = ends[None, :] - starts[:, None] >= MIN_SEGMENT_BINS
        # Column r=0 can never end a segment; slicing it off aligns
        # column i with end bin r = i + 1, whose bucket is i // w.
        smin[a] = np.where(valid, block, np.inf).min(axis=0)[1:]
        smax[a] = np.where(valid, block, -np.inf).max(axis=0)[1:]
    offsets = np.arange(W) * w
    bucket_min = np.minimum.reduceat(smin, offsets, axis=1)
    bucket_max = np.maximum.reduceat(smax, offsets, axis=1)
    return bucket_min, bucket_max


def build_levels(trendline: Trendline) -> Optional[List[Level]]:
    """One trendline's pyramid, fine → coarse; None when it is too short."""
    n = trendline.n_bins
    w = max(MIN_SEGMENT_BINS, -(-n // MAX_SUPER_BINS))
    W = -(-n // w)
    if W < MIN_SUPER_BINS:
        return None
    bucket_min, bucket_max = _finest_level(trendline, w, W)
    levels = [(w, *_atan_buckets(bucket_min, bucket_max))]
    while (W + 1) // 2 >= MIN_SUPER_BINS:
        bucket_min = _pair_combine(bucket_min, np.inf, np.minimum)
        bucket_max = _pair_combine(bucket_max, -np.inf, np.maximum)
        w, W = w * 2, (W + 1) // 2
        levels.append((w, *_atan_buckets(bucket_min, bucket_max)))
    return levels


def _prefix_digest(prefix) -> str:
    """Content digest of a trendline's cumulative statistics."""
    if prefix.stacked is not None:
        block = np.ascontiguousarray(prefix.stacked)
    else:
        block = np.ascontiguousarray(
            np.stack([prefix.count, prefix.sx, prefix.sy, prefix.sxy, prefix.sxx])
        )
    digest = hashlib.sha1(block.tobytes())
    digest.update(str(block.dtype).encode("ascii"))
    return digest.hexdigest()


def witness(trendline: Trendline) -> tuple:
    """``(canonical group key, bin count, prefix digest)`` of one trendline."""
    return (
        canonical_group_key(trendline.key),
        trendline.n_bins,
        _prefix_digest(trendline.prefix),
    )


def pack(pyramids: Sequence[Optional[List[Level]]], bins: Sequence[int],
         dtype=np.float32):
    """The level-major ``(values, layout)`` of per-trendline pyramids.

    Stacks entry by entry, as ``ShapeIndex.pack`` did when the pyramids
    were built one at a time; ``bins[i]`` is trendline ``i``'s bin count.
    Each ``(W, W)`` bucket matrix is stored as its row-major upper
    triangle (``np.triu_indices`` order), the only buckets that can hold
    a segment, in float32: minima through :func:`round_down`, maxima
    through :func:`round_up` (which leave float32 values as they are).
    ``dtype=np.float64`` stores the values unrounded, as artifact
    format 3 did.
    """
    members: Dict[int, List[int]] = {}
    for position, levels in enumerate(pyramids):
        if levels is not None:
            members.setdefault(bins[position], []).append(position)
    groups: list = []
    total = 0
    for n_bins, positions in members.items():
        shapes = []
        for w, amin, _amax in pyramids[positions[0]]:
            W = amin.shape[0]
            shapes.append((w, W, total))
            total += len(positions) * W * (W + 1)
        groups.append((n_bins, positions, shapes))
    values = np.empty(total, dtype=dtype)
    roundings = (round_down, round_up) if dtype == np.float32 else (np.asarray,) * 2
    for _n_bins, positions, shapes in groups:
        for depth, (_w, W, offset) in enumerate(shapes):
            upper = np.triu_indices(W)
            size = len(positions) * W * (W + 1) // 2
            for side, rounding in zip((1, 2), roundings):
                tile = values[offset:offset + size].reshape(len(positions), -1)
                tile[:] = [rounding(pyramids[p][depth][side][upper]) for p in positions]
                offset += size
    return values, (len(pyramids), groups)
