"""Perceptually-aware scoring functions (paper §5.2, Tables 5–6).

All scores live in ``[-1, +1]``: +1 is a perfect match, −1 the perfect
opposite.  Pattern scores are functions of the fitted slope of the
VisualSegment, shaped by ``tan⁻¹`` so that improvements in an already
strong pattern matter less than improvements in a weak one (the paper's
law-of-diminishing-returns argument).  Slopes are measured in normalized
coordinates — σ of y per full trendline width — so a slope of 1.0 reads
as a 45° line on a square canvas.

The module also implements:

* operator combination rules (Table 6): CONCAT = mean, AND = min,
  OR = max, OPPOSITE = negation;
* POSITION/MODIFIER comparison scores (``$i`` with ``>``, ``>>``, …);
* quantifier occurrence counting over directional runs (§5.2);
* sketch similarity (normalized L2, Table 5's ``v`` row); and
* the user-defined-pattern (udp) registry.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algebra.primitives import (
    GRADUAL_SLOPE_DEGREES,
    SHARP_SLOPE_DEGREES,
    Quantifier,
)
from repro.errors import UnknownPatternError

_HALF_PI = math.pi / 2.0

#: Margin (in normalized slope units) a ``>>``/``<<`` comparison must clear.
SHARP_COMPARISON_MARGIN = 1.0

#: RMSE (in z-scored units) at which a sketch match bottoms out at −1.
SKETCH_RMSE_CAP = 2.0

#: Default minimum pattern score for a run to count as a quantifier
#: occurrence (paper §5.2 uses zero "which can be overridden by users"; a
#: slightly positive floor stops barely-drifting runs from counting as
#: rises).  Overridable per engine/session via the
#: ``quantifier_threshold`` option, threaded through
#: :func:`repro.engine.chains.compile_query` into each QuantifierUnit.
QUANTIFIER_POSITIVE_THRESHOLD = 0.3


# --------------------------------------------------------------------------
# Pattern scores (Table 5)
# --------------------------------------------------------------------------

def up_score(slopes):
    """``2·tan⁻¹(slope)/π`` — rises from −1 to +1 with the slope."""
    return 2.0 * np.arctan(slopes) / math.pi


def down_score(slopes):
    """Mirror of :func:`up_score`."""
    return -up_score(slopes)


def flat_score(slopes):
    """``1 − |4·tan⁻¹(slope)/π|`` — +1 at slope 0, −1 at ±90°."""
    return 1.0 - np.abs(4.0 * np.arctan(slopes) / math.pi)


def theta_score(slopes, theta_degrees: float):
    """Slope-target score: +1 at ``θ = x``, −1 at the farthest deviation.

    Table 5's printed formula is garbled in the arXiv copy; this
    implements the stated endpoint semantics:
    with ``a = tan⁻¹(slope)`` and ``t = radians(x)``,
    ``score = 1 − 2·|a − t| / (π/2 + |t|)``.
    """
    target = math.radians(theta_degrees)
    deviation = np.abs(np.arctan(slopes) - target)
    return 1.0 - 2.0 * deviation / (_HALF_PI + abs(target))


def pattern_score(kind: str, slopes, theta: Optional[float] = None):
    """Dispatch a Table 5 scorer over a slope array (or scalar)."""
    if kind == "up":
        return up_score(slopes)
    if kind == "down":
        return down_score(slopes)
    if kind == "flat":
        return flat_score(slopes)
    if kind == "slope":
        return theta_score(slopes, theta)
    if kind == "any":
        return np.ones_like(np.asarray(slopes, dtype=float))
    if kind == "empty":
        return -np.ones_like(np.asarray(slopes, dtype=float))
    raise UnknownPatternError("no slope-based scorer for pattern kind {!r}".format(kind))


def pattern_score_from_atan(kind: str, atans, theta: Optional[float] = None):
    """Table 5 scorers over *precomputed* ``tan⁻¹(slope)`` values.

    The DP matrix kernel computes one arctan transform per tile
    (:data:`repro.engine.dynamic.SHARE_ATAN`) and every slope-based
    layer consumes it, so the transcendental — the expensive part of the
    slope algebra at large n — is paid once per tile instead of once per
    layer.  Each expression mirrors its :func:`pattern_score` twin
    operation for operation, so shared and private paths agree bit for
    bit.
    """
    if kind == "up":
        return 2.0 * atans / math.pi
    if kind == "down":
        return -(2.0 * atans / math.pi)
    if kind == "flat":
        return 1.0 - np.abs(4.0 * atans / math.pi)
    if kind == "slope":
        target = math.radians(theta)
        deviation = np.abs(atans - target)
        return 1.0 - 2.0 * deviation / (_HALF_PI + abs(target))
    if kind == "any":
        return np.ones_like(np.asarray(atans, dtype=float))
    if kind == "empty":
        return -np.ones_like(np.asarray(atans, dtype=float))
    raise UnknownPatternError("no slope-based scorer for pattern kind {!r}".format(kind))


def sharpened_kind(kind: str, comparison: str) -> Tuple[str, Optional[float]]:
    """Resolve a sharp/gradual modifier on up/down into a θ-target pattern.

    ``[p=up, m=>>]`` (sharply rising) scores as ``θ=75°`` and
    ``[p=up, m=>]`` (gradually rising) as ``θ=30°``;
    mirrored for ``down``.
    """
    if kind not in ("up", "down"):
        return kind, None
    sign = 1.0 if kind == "up" else -1.0
    if comparison in (">>", "<<"):
        return "slope", sign * SHARP_SLOPE_DEGREES
    if comparison in (">", "<"):
        return "slope", sign * GRADUAL_SLOPE_DEGREES
    return kind, None


# --------------------------------------------------------------------------
# Operator combination (Table 6)
# --------------------------------------------------------------------------

def concat_scores(scores: Sequence[float]) -> float:
    """CONCAT: arithmetic mean of the children's scores."""
    return float(np.mean(scores))


def and_scores(scores: Sequence[float]) -> float:
    """AND: minimum — every pattern must hold in the sub-region."""
    return float(np.min(scores))


def or_scores(scores: Sequence[float]) -> float:
    """OR: maximum — the best matching alternative wins."""
    return float(np.max(scores))


def opposite_score(score: float) -> float:
    """OPPOSITE: negation."""
    return -score


# --------------------------------------------------------------------------
# POSITION comparisons (§3.1 MODIFIER + POSITION)
# --------------------------------------------------------------------------

def position_score(
    slope: float,
    reference_slope: float,
    comparison: Optional[str],
    factor: Optional[float] = None,
) -> float:
    """Score a segment's slope against a referenced segment's slope.

    ``=`` rewards similar fitted angles; ``>``/``<`` reward exceeding or
    undercutting (optionally by a multiplicative ``factor``, e.g. ``>2``
    = at least twice the referenced slope); ``>>``/``<<`` additionally
    require a margin of :data:`SHARP_COMPARISON_MARGIN` normalized slope
    units.  With no comparison at all, ``$i`` defaults to ``=``.
    """
    if comparison is None or comparison == "=":
        deviation = abs(math.atan(slope) - math.atan(reference_slope))
        return 1.0 - 2.0 * deviation / math.pi
    if comparison == ">":
        target = reference_slope * (factor if factor is not None else 1.0)
        return 2.0 * math.atan(slope - target) / math.pi
    if comparison == "<":
        target = reference_slope * (factor if factor is not None else 1.0)
        return 2.0 * math.atan(target - slope) / math.pi
    if comparison == ">>":
        return 2.0 * math.atan(slope - reference_slope - SHARP_COMPARISON_MARGIN) / math.pi
    if comparison == "<<":
        return 2.0 * math.atan(reference_slope - slope - SHARP_COMPARISON_MARGIN) / math.pi
    raise UnknownPatternError("unknown position comparison {!r}".format(comparison))


# --------------------------------------------------------------------------
# Sketch similarity (Table 5 row ``v``)
# --------------------------------------------------------------------------

def resample(values: np.ndarray, length: int) -> np.ndarray:
    """Linear re-interpolation of a series to ``length`` samples.

    Degenerate sources are defined rather than left to ``np.interp``'s
    mercy (an empty source grid raises, a one-point grid is a division
    hazard): an empty series resamples to zeros and a single point
    broadcasts to a constant series.
    """
    values = np.asarray(values, dtype=float)
    length = max(0, int(length))
    if len(values) == length:
        return values
    if len(values) == 0:
        return np.zeros(length)
    if len(values) == 1:
        return np.full(length, float(values[0]))
    source = np.linspace(0.0, 1.0, len(values))
    target = np.linspace(0.0, 1.0, length)
    return np.interp(target, source, values)


def znormalize(values: np.ndarray) -> np.ndarray:
    """z-score a series; constant (and empty) series map to zeros."""
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        return np.zeros(0)
    std = values.std()
    if std < 1e-12:
        return np.zeros_like(values)
    return (values - values.mean()) / std


def sketch_score(segment_values: np.ndarray, sketch_values: np.ndarray) -> float:
    """Normalized-L2 similarity in ``[-1, 1]``.

    Both series are z-normalized and length-aligned; the RMSE between
    them is mapped linearly so 0 → +1 and :data:`SKETCH_RMSE_CAP` → −1.
    Degenerate input has a defined score: a segment or sketch with fewer
    than two points cannot express a shape and scores −1.
    """
    if len(segment_values) < 2 or len(sketch_values) < 2:
        return -1.0
    reference = resample(sketch_values, len(segment_values))
    a = znormalize(segment_values)
    b = znormalize(reference)
    rmse = math.sqrt(float(np.mean((a - b) ** 2)))
    return 1.0 - 2.0 * min(rmse, SKETCH_RMSE_CAP) / SKETCH_RMSE_CAP


# --------------------------------------------------------------------------
# Quantifier occurrence counting (§5.2 "Scoring quantifiers")
# --------------------------------------------------------------------------

def directional_runs(values: np.ndarray, min_points: int = 2) -> List[Tuple[int, int]]:
    """Maximal same-direction runs as bin ranges; see :func:`classified_runs`."""
    return [(a, b) for a, b, _ in classified_runs(values, min_points)]


def classified_runs(
    values: np.ndarray, min_points: int = 2
) -> List[Tuple[int, int, int]]:
    """Maximal same-direction runs of a series: ``(a, b, class)`` triples.

    Consecutive differences are classified into rising (+1), falling (−1)
    and flat (0); maximal stretches of the same class become runs; runs
    spanning fewer than ``min_points`` differences are merged into their
    neighbour — the blurring step that ignores one-or-two-sample wiggles
    (paper §3's "minor fluctuations").  Consecutive runs share their
    junction point, so a run's ``b`` equals the next run's ``a`` + 1.
    The class lets quantifiers count only genuinely-rising runs when
    asked for "rises at least twice" (a long flat stretch whose fitted
    slope is barely positive is not a rise).
    """
    values = np.asarray(values, dtype=float)
    if len(values) < 2:
        return []
    diffs = np.diff(values)
    span = float(values.max() - values.min())
    tolerance = 1e-12 if span == 0 else span * 1e-3
    classes = np.where(diffs > tolerance, 1, np.where(diffs < -tolerance, -1, 0))

    runs: List[Tuple[int, int, int]] = []  # (start, end, class) over diff indices
    start = 0
    for i in range(1, len(classes)):
        if classes[i] != classes[start]:
            runs.append((start, i, int(classes[start])))
            start = i
    runs.append((start, len(classes), int(classes[start])))

    threshold = max(1, min_points)
    merged: List[Tuple[int, int, int]] = []
    for run in runs:
        if merged and (run[1] - run[0]) < threshold:
            previous = merged.pop()
            merged.append((previous[0], run[1], previous[2]))
        else:
            merged.append(run)
    # A short leading run merges forward instead.
    while len(merged) >= 2 and (merged[0][1] - merged[0][0]) < threshold:
        first, second = merged[0], merged[1]
        merged = [(first[0], second[1], second[2])] + merged[2:]
    # Coalesce same-class neighbours created by absorbing wiggles.
    coalesced: List[Tuple[int, int, int]] = []
    for run in merged:
        if coalesced and coalesced[-1][2] == run[2]:
            previous = coalesced.pop()
            coalesced.append((previous[0], run[1], previous[2]))
        else:
            coalesced.append(run)
    # Diff index range [a, b) covers points/bins [a, b+1).
    return [(a, b + 1, cls) for a, b, cls in coalesced]


def quantifier_score(
    quantifier: Quantifier,
    run_scores: Sequence[float],
    positive_threshold: float = 0.0,
) -> float:
    """Combine per-run pattern scores under an occurrence quantifier.

    Runs scoring above ``positive_threshold`` count as occurrences.  If
    the count violates the quantifier the segment scores −1; otherwise
    the score is the mean of the best ``q`` occurrences where ``q`` is
    the quantifier's minimum requirement ("the minimum number of
    sub-segments that satisfy the constraint").  A satisfied quantifier
    with zero occurrences required and none present scores +1.
    """
    occurrences = sorted(
        (score for score in run_scores if score > positive_threshold), reverse=True
    )
    if not quantifier.accepts(len(occurrences)):
        return -1.0
    needed = quantifier.required
    if needed == 0:
        if not occurrences:
            return 1.0
        needed = len(occurrences)
    return float(np.mean(occurrences[:needed]))


# --------------------------------------------------------------------------
# User-defined patterns (§3.1 ``udp``)
# --------------------------------------------------------------------------

#: A UDP takes (normalized segment values, fitted slope) and returns [-1, 1].
UdpFunction = Callable[[np.ndarray, float], float]

_UDP_REGISTRY: Dict[str, UdpFunction] = {}


def register_udp(name: str, function: UdpFunction) -> None:
    """Register a user-defined pattern under ``name`` (``p=udp:name``)."""
    _UDP_REGISTRY[name] = function


def unregister_udp(name: str) -> None:
    """Remove a registered UDP; unknown names are ignored."""
    _UDP_REGISTRY.pop(name, None)


def get_udp(name: str) -> UdpFunction:
    """Look up a UDP, raising :class:`UnknownPatternError` if missing."""
    try:
        return _UDP_REGISTRY[name]
    except KeyError:
        raise UnknownPatternError(
            "user-defined pattern {!r} is not registered".format(name)
        ) from None


@contextmanager
def temporary_udp(name: str, function: UdpFunction):
    """Scoped UDP registration (used by tests and examples)."""
    register_udp(name, function)
    try:
        yield
    finally:
        unregister_udp(name)
