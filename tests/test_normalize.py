"""Tests for OPPOSITE push-down and operator flattening."""

from hypothesis import given
from hypothesis import strategies as st

from repro.algebra import builder as q
from repro.algebra.nodes import And, Concat, Opposite, Or, ShapeSegment
from repro.algebra.normalize import is_normalized, normalize


def leaf_strategy():
    return st.sampled_from(["up", "down", "flat"]).map(
        lambda kind: {"up": q.up, "down": q.down, "flat": q.flat}[kind]()
    )


def tree_strategy():
    return st.recursive(
        leaf_strategy(),
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda pair: Concat(pair)),
            st.tuples(children, children).map(lambda pair: Or(pair)),
            st.tuples(children, children).map(lambda pair: And(pair)),
            children.map(Opposite),
        ),
        max_leaves=6,
    )


class TestPushDown:
    def test_double_negation_cancels(self):
        tree = q.opposite(q.opposite(q.up()))
        assert normalize(tree) == q.up()

    def test_negated_up_becomes_down(self):
        assert normalize(q.opposite(q.up())) == q.down()
        assert normalize(q.opposite(q.down())) == q.up()
        assert normalize(q.opposite(q.slope(30))) == q.slope(-30)

    def test_negated_flat_keeps_flag(self):
        result = normalize(q.opposite(q.flat()))
        assert isinstance(result, ShapeSegment)
        assert result.negated
        assert result.pattern.kind == "flat"

    def test_de_morgan_or(self):
        tree = q.opposite(q.or_(q.up(), q.flat()))
        result = normalize(tree)
        assert isinstance(result, And)
        kinds = [(seg.pattern.kind, seg.negated) for seg in result.segments()]
        assert kinds == [("down", False), ("flat", True)]

    def test_de_morgan_and(self):
        tree = q.opposite(q.and_(q.up(), q.down()))
        result = normalize(tree)
        assert isinstance(result, Or)

    def test_negation_distributes_over_concat(self):
        tree = q.opposite(q.concat(q.up(), q.down()))
        result = normalize(tree)
        assert isinstance(result, Concat)
        kinds = [seg.pattern.kind for seg in result.segments()]
        assert kinds == ["down", "up"]

    def test_negated_modifier_segment_keeps_flag(self):
        tree = q.opposite(q.up(sharp=True))
        result = normalize(tree)
        assert result.negated and result.pattern.kind == "up"


class TestFlattening:
    def test_nested_or_flattens(self):
        tree = Or((Or((q.up(), q.down())), q.flat()))
        result = normalize(tree)
        assert isinstance(result, Or)
        assert len(result.children) == 3

    def test_nested_and_flattens(self):
        tree = And((And((q.up(), q.down())), q.flat()))
        result = normalize(tree)
        assert len(result.children) == 3

    def test_concat_does_not_flatten(self):
        inner = Concat((q.down(), q.up()))
        tree = Concat((q.up(), inner))
        result = normalize(tree)
        assert isinstance(result.children[1], Concat)


class TestProperties:
    @given(tree_strategy())
    def test_normalize_removes_all_opposites(self, tree):
        assert is_normalized(normalize(tree))

    @given(tree_strategy())
    def test_normalize_is_idempotent(self, tree):
        once = normalize(tree)
        assert normalize(once) == once

    @given(tree_strategy())
    def test_segment_count_is_preserved(self, tree):
        before = len(list(tree.segments()))
        after = len(list(normalize(tree).segments()))
        assert before == after
