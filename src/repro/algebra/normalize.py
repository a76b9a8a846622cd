"""ShapeQuery normalization: OPPOSITE push-down and operator flattening.

The execution engines (DP, SegmentTree, greedy) assume a tree built
only of CONCAT / AND / OR with negation recorded on the leaves.  This
module rewrites any ShapeQuery into that form:

* ``!`` distributes over the operators under score negation::

      !(A ⊗ B) → !A ⊗ !B        (−mean(a, b) = mean(−a, −b))
      !(A ⊕ B) → !A ⊙ !B        (−max(a, b) = min(−a, −b))
      !(A ⊙ B) → !A ⊕ !B        (−min(a, b) = max(−a, −b))
      !!A      → A

  At a leaf, ``!`` flips :attr:`ShapeSegment.negated` — except for plain
  ``up``/``down``/``slope`` patterns, which are replaced by their mirror
  pattern (``!up`` ≡ ``down`` exactly, per Table 5's antisymmetric
  scores), keeping queries readable when printed back.

* Same-operator AND/OR children are flattened (min and max are
  associative).  CONCAT is **not** flattened: ``a⊗(c⊗d)`` deliberately
  weights ``c`` and ``d`` by 1/4 each (Table 6 takes the mean at every
  level), so grouping is semantic.
"""

from __future__ import annotations

from typing import Tuple

from repro.algebra.nodes import And, Concat, Node, Opposite, Or, ShapeSegment


def normalize(node: Node) -> Node:
    """Return an equivalent tree with ``!`` pushed to leaves and AND/OR flattened."""
    return _normalize(node, negate=False)


def _normalize(node: Node, negate: bool) -> Node:
    if isinstance(node, Opposite):
        return _normalize(node.child, not negate)
    if isinstance(node, ShapeSegment):
        return _normalize_leaf(node, negate)
    if isinstance(node, Concat):
        children = tuple(_normalize(child, negate) for child in node.children)
        return Concat(children)
    if isinstance(node, And):
        cls = Or if negate else And
        return cls(_flatten(cls, tuple(_normalize(c, negate) for c in node.children)))
    if isinstance(node, Or):
        cls = And if negate else Or
        return cls(_flatten(cls, tuple(_normalize(c, negate) for c in node.children)))
    raise TypeError("unknown ShapeQuery node {!r}".format(node))


def _normalize_leaf(segment: ShapeSegment, negate: bool) -> ShapeSegment:
    effective = segment.negated != negate
    if not effective:
        return segment if not segment.negated else segment.toggled()
    pattern = segment.pattern
    # Mirror-symmetric patterns fold the negation into the pattern itself;
    # anything else keeps an explicit flag for the scorer.
    if pattern is not None and pattern.kind in ("up", "down", "slope") and segment.modifier is None:
        flipped = segment.with_pattern(pattern.negated())
        return flipped if not flipped.negated else flipped.toggled()
    if not segment.negated:
        return segment.toggled()
    return segment


def _flatten(cls, children: Tuple[Node, ...]) -> Tuple[Node, ...]:
    flat = []
    for child in children:
        if isinstance(child, cls):
            flat.extend(child.children)
        else:
            flat.append(child)
    return tuple(flat)


def is_normalized(node: Node) -> bool:
    """True when the tree contains no Opposite nodes and no nested AND/AND, OR/OR."""
    for sub in node.walk():
        if isinstance(sub, Opposite):
            return False
        if isinstance(sub, (And, Or)):
            if any(isinstance(child, type(sub)) for child in sub.child_nodes()):
                return False
    return True
