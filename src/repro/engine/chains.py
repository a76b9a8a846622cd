"""Compile a ShapeQuery AST into weighted alternative chains of units.

Execution engines do not walk the AST directly.  A normalized query is
flattened into one or more *alternative chains* — flat sequences of
:class:`~repro.engine.units.CompiledUnit` with weights — such that::

    score(query, viz) = max over chains of  Σ_i  w_i · score(unit_i, seg_i)

where the ``seg_i`` partition the visualization left to right.  The
weights encode the nested CONCAT means of Table 6 exactly: every unit's
weight is the product of ``1/len(children)`` over the CONCAT nodes above
it, and each OR branch contributes one alternative, so the max over
chains of the weighted sums equals the recursive mean/max evaluation of
the tree (AND subtrees stay intact as single :class:`AndUnit` leaves,
scored over one shared region as the paper prescribes).

Example: ``a ⊗ (b ⊕ (c ⊗ d))`` flattens to two chains —
``[(a, ½), (b, ½)]`` and ``[(a, ½), (c, ¼), (d, ¼)]`` — the same
ShapeExpr families the paper tracks at the nodes of Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import List, Optional, Tuple

from repro.algebra.nodes import And, Concat, Node, Or, ShapeSegment
from repro.algebra.normalize import normalize
from repro.algebra.primitives import Location
from repro.algebra.validate import validate
from repro.engine.scoring import sharpened_kind
from repro.engine.units import (
    AndUnit,
    CompiledUnit,
    LineUnit,
    NestedUnit,
    PositionUnit,
    QuantifierUnit,
    SketchUnit,
    SlopeUnit,
    UdpUnit,
    WindowUnit,
)
from repro.errors import ExecutionError

#: Guard against OR-combinatorics explosions while flattening.
MAX_ALTERNATIVES = 128


@dataclass(frozen=True)
class ChainUnit:
    """One unit of a chain with its CONCAT-mean weight."""

    unit: CompiledUnit
    weight: float


@dataclass(frozen=True)
class Chain:
    """A flat weighted sequence of units; one OR-alternative of the query."""

    units: Tuple[ChainUnit, ...]

    @property
    def k(self) -> int:
        return len(self.units)

    @property
    def has_position(self) -> bool:
        return any(cu.unit.has_position for cu in self.units)

    def all_vectorized(self) -> bool:
        return all(cu.unit.vectorized for cu in self.units)


@dataclass
class CompiledQuery:
    """A normalized, validated, flattened ShapeQuery ready for execution."""

    node: Node
    chains: List[Chain]

    @property
    def k(self) -> int:
        """Widest chain length (the paper's k)."""
        return max(chain.k for chain in self.chains)

    @property
    def has_position(self) -> bool:
        return any(chain.has_position for chain in self.chains)

    @property
    def uses_udp(self) -> bool:
        """Does any pattern, nested sub-queries included, name a UDP?"""
        return _uses_udp(self.node)

    def pinned_units(self) -> List[ChainUnit]:
        """Units with both x endpoints fixed, across all chains."""
        seen = []
        for chain in self.chains:
            for cu in chain.units:
                if cu.unit.location.is_x_pinned and cu not in seen:
                    seen.append(cu)
        return seen


def compile_query(
    node: Node, quantifier_threshold: Optional[float] = None
) -> CompiledQuery:
    """Normalize, validate and flatten a ShapeQuery AST.

    ``quantifier_threshold`` overrides the occurrence floor baked into
    compiled QuantifierUnits (paper §5.2: the default "can be overridden
    by users"); ``None`` keeps
    :data:`repro.engine.scoring.QUANTIFIER_POSITIVE_THRESHOLD`.
    """
    normalized = normalize(node)
    validate(normalized)
    counter = _SegmentCounter()
    alternatives = _flatten(normalized, 1.0, counter, quantifier_threshold)
    if not alternatives:
        raise ExecutionError("query flattened to no alternatives")
    return CompiledQuery(node=normalized, chains=[Chain(tuple(units)) for units in alternatives])


def _uses_udp(node: Node) -> bool:
    for segment in node.segments():
        pattern = segment.pattern
        if pattern is not None and (
            pattern.kind == "udp" or (pattern.kind == "nested" and _uses_udp(pattern.nested))
        ):
            return True
    return False


class _SegmentCounter:
    """Assigns AST-wide left-to-right indices to ShapeSegments ($ refs)."""

    def __init__(self):
        self.next_index = 0

    def take(self) -> int:
        index = self.next_index
        self.next_index += 1
        return index


def _flatten(
    node: Node,
    scale: float,
    counter: _SegmentCounter,
    quantifier_threshold: Optional[float] = None,
) -> List[List[ChainUnit]]:
    if isinstance(node, ShapeSegment):
        unit = compile_segment(node, counter.take(), quantifier_threshold)
        return [[ChainUnit(unit, scale)]]
    if isinstance(node, Concat):
        share = scale / len(node.children)
        child_alternatives = [
            _flatten(child, share, counter, quantifier_threshold)
            for child in node.children
        ]
        combos: List[List[ChainUnit]] = []
        for combo in product(*child_alternatives):
            merged: List[ChainUnit] = []
            for part in combo:
                merged.extend(part)
            combos.append(merged)
            if len(combos) > MAX_ALTERNATIVES:
                raise ExecutionError(
                    "query has more than {} OR-alternatives".format(MAX_ALTERNATIVES)
                )
        return combos
    if isinstance(node, Or):
        alternatives: List[List[ChainUnit]] = []
        for child in node.children:
            alternatives.extend(_flatten(child, scale, counter, quantifier_threshold))
            if len(alternatives) > MAX_ALTERNATIVES:
                raise ExecutionError(
                    "query has more than {} OR-alternatives".format(MAX_ALTERNATIVES)
                )
        return alternatives
    if isinstance(node, And):
        branches = []
        for child in node.children:
            branch_alternatives = _flatten(child, 1.0, counter, quantifier_threshold)
            branches.append([Chain(tuple(units)) for units in branch_alternatives])
        return [[ChainUnit(AndUnit(branches), scale)]]
    raise ExecutionError("cannot flatten node {!r} (was the query normalized?)".format(node))


def compile_segment(
    segment: ShapeSegment,
    seg_index: int,
    quantifier_threshold: Optional[float] = None,
) -> CompiledUnit:
    """Compile one ShapeSegment into the appropriate unit type."""
    location = segment.location
    base_location = location
    if location.iterator is not None:
        # The window wrapper owns the iterator; the base sees no x pins.
        base_location = Location(y_start=location.y_start, y_end=location.y_end)

    unit = _compile_base(segment, base_location, seg_index, quantifier_threshold)
    if location.iterator is not None:
        unit = WindowUnit(unit, width=location.iterator.width, location=location)
    return unit


def _compile_base(
    segment: ShapeSegment,
    location: Location,
    seg_index: int,
    quantifier_threshold: Optional[float] = None,
) -> CompiledUnit:
    negated = segment.negated
    modifier = segment.modifier
    pattern = segment.pattern

    if segment.sketch is not None:
        return SketchUnit(segment.sketch, location=location, negated=negated, seg_index=seg_index)

    if pattern is None:
        if location.y_start is not None or location.y_end is not None:
            return LineUnit(location=location, negated=negated, seg_index=seg_index)
        return SlopeUnit("any", location=location, negated=negated, seg_index=seg_index)

    if pattern.kind == "position":
        comparison = modifier.comparison if modifier is not None else None
        factor = modifier.factor if modifier is not None else None
        return PositionUnit(
            reference_index=pattern.reference.resolve(seg_index),
            comparison=comparison,
            factor=factor,
            location=location,
            negated=negated,
            seg_index=seg_index,
        )

    if pattern.kind == "udp":
        if modifier is not None and modifier.is_quantifier:
            return QuantifierUnit(
                "udp",
                modifier.quantifier,
                udp_name=pattern.udp_name,
                location=location,
                negated=negated,
                seg_index=seg_index,
                positive_threshold=quantifier_threshold,
            )
        return UdpUnit(pattern.udp_name, location=location, negated=negated, seg_index=seg_index)

    if pattern.kind == "nested":
        inner = compile_query(pattern.nested, quantifier_threshold=quantifier_threshold)
        return NestedUnit(inner, location=location, negated=negated, seg_index=seg_index)

    kind = pattern.kind
    theta = pattern.theta
    if modifier is not None and modifier.is_quantifier:
        return QuantifierUnit(
            kind,
            modifier.quantifier,
            theta=theta,
            location=location,
            negated=negated,
            seg_index=seg_index,
            positive_threshold=quantifier_threshold,
        )
    if modifier is not None and modifier.comparison is not None:
        if modifier.factor is None and kind in ("up", "down"):
            kind, sharp_theta = sharpened_kind(kind, modifier.comparison)
            theta = sharp_theta if sharp_theta is not None else theta
        # A factor without a position reference scales the implied target:
        # [p=up, m=>2] reads "rising at least 2x the 45-degree reference".
        elif modifier.factor is not None and kind in ("up", "down"):
            import math

            base = 1.0 if kind == "up" else -1.0
            kind, theta = "slope", math.degrees(math.atan(base * modifier.factor))
    return SlopeUnit(kind, theta=theta, location=location, negated=negated, seg_index=seg_index)
