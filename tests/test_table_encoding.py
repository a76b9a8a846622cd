"""The per-column dictionary encoding behind ``group_by`` and the block kernel.

``Table.encoding`` walks a column once (``_encode_values``, the one
per-row funnel); ``append_rows`` must hand the grown table an encoding
*extended* by the new rows only, equal to what a from-scratch walk of the
concatenated column produces — keys (their exact objects' types, NaN
coalesced), their first-seen order, and every code.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data import table as table_module
from repro.data.table import ColumnEncoding, Table
from repro.data.visual_params import VisualParams
from repro.engine.cache import table_fingerprint
from repro.engine.collection import count_groups

from tests.conftest import same_key
from tests.oracles import generation as oracle

NAN = float("nan")
#: Per column kind: how the base column is built, and values that keep
#: its dtype.  Appending another kind's values widens (or boxes) it.
KINDS = {
    "int": (lambda values: np.array(values, dtype=int), st.integers(-3, 3)),
    "float": (
        lambda values: np.array(values, dtype=float),
        st.sampled_from([0.0, -0.0, 1.0, 2.5, NAN, float("nan")]),
    ),
    "str": (lambda values: np.array(values, dtype="<U2"), st.sampled_from(["a", "b", "cc"])),
    "object": (
        lambda values: _object_array(values),
        st.sampled_from([1, 1.0, True, 0, False, "a", (0, "t"), (1, "t"), NAN, float("nan")]),
    ),
}
WIDENERS = st.sampled_from([2.5, "wide", 10 ** 30, ("k", 1), ("k", 2)])


def _object_array(values):
    out = np.empty(len(values), dtype=object)
    for index, value in enumerate(values):
        out[index] = value
    return out


def assert_same_encoding(got: ColumnEncoding, expected: ColumnEncoding):
    assert len(got.keys) == len(expected.keys)
    assert all(same_key(a, b) for a, b in zip(got.keys, expected.keys))
    assert got.codes.dtype == np.intp and not got.codes.flags.writeable
    assert got.codes.tolist() == expected.codes.tolist()
    assert list(got.slots.values()) == list(range(len(got.keys)))
    # Every NaN row carries the one canonical NaN key.
    assert all(key is table_module._NAN_KEY for key in got.keys if key != key)


def scratch_encoding(table: Table, name: str = "z") -> ColumnEncoding:
    """The column encoded by a fresh walk, as a never-appended table does."""
    return ColumnEncoding.of(table.column(name))


@st.composite
def schedules(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    build, values = KINDS[kind]
    head = draw(st.lists(values, min_size=1, max_size=8))
    batches = draw(
        st.lists(
            st.lists(st.one_of(values, values, values, WIDENERS), min_size=1, max_size=5),
            min_size=1,
            max_size=4,
        )
    )
    return build(head), batches


class TestEncodingExtension:
    @given(schedules(), st.booleans())
    def test_extended_equals_from_scratch(self, schedule, encode_first):
        column, batches = schedule
        table = Table.from_arrays(z=column, i=np.arange(len(column)))
        for batch in batches:
            if encode_first:
                table.encoding("z")
            table = table.append_rows(
                [{"z": value, "i": len(table) + row} for row, value in enumerate(batch)]
            )
            assert_same_encoding(table.encoding("z"), scratch_encoding(table))

    def test_append_visits_only_the_delta_rows(self, encoded_rows):
        visited = encoded_rows
        table = Table.from_arrays(z=np.array(["a", "b", "a", "c"] * 25), v=np.arange(100.0))
        table.encoding("z")
        assert visited == [100]
        for step in range(3):
            # "n0" widens the column from <U1 to <U2: same str keys, so
            # even that append extends instead of re-walking.
            table = table.append_rows(
                [{"z": "b", "v": 0.0}, {"z": "n{}".format(step), "v": 1.0}]
            )
            assert table.encoding("z").keys[-1] == "n{}".format(step)
        # group_by and the kernel's group count read it: no further walk.
        list(table.group_by("z"))
        count_groups(table, VisualParams(z="z", x="v", y="v"))
        assert visited == [100, 2, 2, 2]
        assert_same_encoding(table.encoding("z"), scratch_encoding(table))

    def test_unencoded_base_appends_nothing_to_extend(self, encoded_rows):
        visited = encoded_rows
        base = Table.from_arrays(z=np.array([1, 2, 1]), v=np.arange(3.0))
        grown = base.append_rows([{"z": 2, "v": 3.0}])
        assert visited == []  # lazy: nobody grouped yet
        assert grown.encoding("z").keys == [1, 2]
        assert visited == [4]

    def test_dtype_widening_append_re_encodes_lazily(self, encoded_rows):
        visited = encoded_rows
        base = Table.from_arrays(z=np.array([1, 2, 1]), v=np.arange(3.0))
        assert base.encoding("z").keys == [1, 2]
        grown = base.append_rows([{"z": 2.5, "v": 3.0}])  # int column -> float
        assert grown.column("z").dtype == float
        assert visited == [3]  # nothing extended: the key objects changed
        encoding = grown.encoding("z")
        assert visited == [3, 4]
        assert [type(key) for key in encoding.keys] == [float, float, float]
        assert_same_encoding(encoding, scratch_encoding(grown))
        # The base keeps its own encoding, untouched by the append.
        assert base.encoding("z").keys == [1, 2] and len(base.encoding("z").codes) == 3

    @pytest.mark.parametrize(
        "head", [np.array(["a", "b"]), np.array([1.5, 2.5])], ids=["str", "float"]
    )
    def test_tuple_keys_box_a_typed_column(self, head):
        # Equal-length tuples are values, not rows of a 2-D array: the
        # append boxes the column exactly as a from-scratch build does.
        tail = [("k", 1), ("k", 2)]
        base = Table.from_arrays(z=head, v=np.arange(2.0))
        base.encoding("z")
        grown = base.append_rows(
            [{"z": key, "v": 2.0 + row} for row, key in enumerate(tail)]
        )
        scratch = Table.from_records(
            [{"z": key, "v": float(row)} for row, key in enumerate(head.tolist() + tail)]
        )
        assert grown.column("z").dtype == scratch.column("z").dtype == object
        assert grown.column("z").tolist() == scratch.column("z").tolist()
        assert grown.column("v").tolist() == scratch.column("v").tolist()
        assert table_fingerprint(grown) == table_fingerprint(scratch)
        assert_same_encoding(grown.encoding("z"), scratch_encoding(scratch))

    def test_sibling_appends_do_not_share_keys(self):
        base = Table.from_arrays(z=np.array(["a", "b"]), v=np.arange(2.0))
        base.encoding("z")
        left = base.append_rows([{"z": "left", "v": 0.0}])
        right = base.append_rows([{"z": "right", "v": 0.0}])
        assert left.encoding("z").keys == ["a", "b", "left"]
        assert right.encoding("z").keys == ["a", "b", "right"]
        assert base.encoding("z").keys == ["a", "b"]


class TestGroupByReadsTheEncoding:
    """``group_by`` / ``count_groups`` answer as the per-row walk did."""

    @given(schedules(), st.sampled_from(["coalesce", "drop"]))
    def test_group_by_equals_per_row_walk(self, schedule, nan_policy):
        column, _batches = schedule
        table = Table.from_arrays(z=column, v=np.arange(float(len(column))))
        got = list(table.group_by("z", nan_policy=nan_policy))
        expected = list(oracle.group_by(table, "z", nan_policy=nan_policy))
        assert len(got) == len(expected)
        for (key, rows), (their_key, their_rows) in zip(got, expected):
            assert same_key(key, their_key)
            assert rows.dtype == their_rows.dtype and rows.tolist() == their_rows.tolist()

    @given(schedules(), st.sampled_from([(), ("v < 3",), ("v >= 2", "v < 5"), ("v < 0",)]))
    def test_count_groups_equals_per_row_walk(self, schedule, filters):
        column, _batches = schedule
        table = Table.from_arrays(z=column, v=np.arange(float(len(column))))
        params = VisualParams(z="z", x="v", y="v", filters=filters)
        filtered = oracle.apply_filters(table, params.filters)
        assert count_groups(table, params) == len(list(oracle.group_by(filtered, "z")))

    def test_unhashable_key_still_raises(self):
        table = Table.from_arrays(z=_object_array([[1], [2]]), v=np.arange(2.0))
        with pytest.raises(TypeError):
            list(table.group_by("z"))
