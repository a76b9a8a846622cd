"""The block kernel (repro.engine.collection) against the per-group oracle.

The kernel's contract is byte-identity with ``tests/oracles/generation.py``
— the per-group EXTRACT/GROUP chain it replaced.  The property test
draws tables row by row, so group lengths are ragged, rows of different
groups interleave and no group arrives sorted; x values come from a small
pool (duplicates, ``-0.0`` beside ``0.0``, NaN, infinities) and z keys
from one that includes the mixed-type trio ``1`` / ``1.0`` / ``True``
(one key under dict equality), tuples and NaN.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data.filters import Filter
from repro.data.table import Table
from repro.data.visual_params import VisualParams
from repro.engine import collection as kernel
from repro.engine.pipeline import generate_trendlines
from repro.engine.pushdown import PushdownPlan

from tests.conftest import same_key
from tests.oracles import generation as oracle

NAN = float("nan")
KEYS = ["a", "b", 1, 1.0, True, 2, (0, "t"), (1, "t"), NAN, float("nan"), "c"]
X_POOL = [-2.0, -0.0, 0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 4.5, 7.0, 9.0, NAN, float("inf")]
AGGREGATES = ["mean", "sum", "min", "max", "count", "median"]
PLANS = [
    None,
    PushdownPlan(required_spans=[(1.0, 3.0)]),
    PushdownPlan(required_spans=[(0.0, 2.0), (4.0, 9.0)], keep_span=(0.0, 9.0)),
    PushdownPlan(keep_span=(2.0, 2.5)),
    PushdownPlan(keep_span=(0.5, 7.0)),
]
PREFIX_ROWS = ("count", "sx", "sy", "sxy", "sxx")
ARRAYS = ("x", "y", "bin_x", "bin_y", "norm_bin_y")


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes; NaNs must sit in the same places.

    NaN *payloads* are the one thing not compared: no engine code can
    observe them, and which operand's payload an addition keeps is the
    FPU's choice, not numpy's.  Everything else — ``-0.0`` vs ``0.0``,
    the last bit of a sum — is.
    """
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    return bool((nan_a == nan_b).all()) and a[~nan_a].tobytes() == b[~nan_b].tobytes()


def assert_same_trendline(expected, got):
    assert same_key(expected.key, got.key)
    for name in ARRAYS:
        assert same_bits(getattr(expected, name), getattr(got, name)), name
    for name in PREFIX_ROWS:
        assert same_bits(getattr(expected.prefix, name), getattr(got.prefix, name)), name
    assert same_bits(got.prefix.stacked, expected.prefix.stacked)
    assert same_bits(
        np.array([expected.y_mean, expected.y_std]), np.array([got.y_mean, got.y_std])
    )
    assert (expected.offset, expected.n_bins) == (got.offset, got.n_bins)


def assert_same_pairs(expected, got):
    assert [index for index, _ in expected] == [index for index, _ in got]
    for (_, theirs), (_, ours) in zip(expected, got):
        assert_same_trendline(theirs, ours)


@st.composite
def cases(draw):
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(KEYS) - 1),
                st.sampled_from(X_POOL),
                st.one_of(
                    st.sampled_from([2.5, -1.0, NAN]),
                    st.floats(-100.0, 100.0, allow_nan=False),
                ),
                st.sampled_from([0.1, 0.3, 0.6, 0.9]),
            ),
            min_size=1,
            max_size=150,
        )
    )
    # Groups forced onto one y value (the 1e-12 std guard) or one x value
    # (a series that spans nothing and must leave no trendline).
    flat = draw(st.sets(st.integers(0, len(KEYS) - 1), max_size=3))
    single_x = draw(st.sets(st.integers(0, len(KEYS) - 1), max_size=2))
    z = np.empty(len(rows), dtype=object)
    x, y, f = (np.empty(len(rows)) for _ in range(3))
    for row, (key, x_value, y_value, f_value) in enumerate(rows):
        z[row] = KEYS[key]
        x[row] = 3.0 if key in single_x else x_value
        y[row] = 2.5 if key in flat else y_value
        f[row] = f_value
    # f < 0.05 empties every group, f < 0.5 halves them, f < 1 keeps all.
    threshold = draw(st.sampled_from([None, 0.05, 0.5, 1.0]))
    params = VisualParams(
        z="z",
        x="x",
        y="y",
        filters=() if threshold is None else ("f < {}".format(threshold),),
        aggregate=draw(st.sampled_from(AGGREGATES)),
        bin_width=draw(st.sampled_from([None, None, 0.7, 2.0, 5.0, -1.0])),
    )
    return (
        Table.from_arrays(z=z, x=x, y=y, f=f),
        params,
        draw(st.booleans()),
        draw(st.sampled_from(PLANS)),
        # Small blocks force the multi-block paths on these small tables.
        draw(st.sampled_from([3, 16, kernel.BLOCK_ELEMENTS])),
        draw(st.lists(st.integers(0, len(KEYS) + 1), max_size=3)),
    )


@given(cases())
def test_kernel_equals_per_group_oracle_bit_for_bit(case):
    table, params, normalize_y, plan, block, cuts = case
    with np.errstate(all="ignore"):
        expected = oracle.generate_pairs(table, params, normalize_y, plan)
        with mock.patch.object(kernel, "BLOCK_ELEMENTS", block):
            collection = generate_trendlines(table, params, normalize_y, plan)
            # Group-index ranges over any split are slices of that collection.
            bounds = [0] + sorted(cuts) + [len(KEYS) + 2]
            ranged = []
            for start, end in zip(bounds, bounds[1:]):
                part = kernel.build_collection(table, params, normalize_y, plan, range(start, end))
                ranged += zip(part.groups.tolist(), part)
    got = list(zip(collection.groups.tolist(), collection))
    assert_same_pairs(expected, got)
    assert_same_pairs(got, ranged)
    assert all(same_key(trendline.key, key) for trendline, key in zip(collection, collection.keys))
    # Every group of the filtered table has a name, trendline or not.
    filtered = oracle.apply_filters(table, params.filters)
    filtered_keys = [key for key, _rows in oracle.group_by(filtered, "z")]
    assert len(collection.group_keys) == len(filtered_keys)
    assert all(same_key(a, b) for a, b in zip(collection.group_keys, filtered_keys))


def _one_series(count, distinct, seed=5):
    rng = np.random.default_rng(seed)
    x = rng.permutation(np.arange(count) % distinct).astype(float)
    return Table.from_arrays(z=np.zeros(count, dtype=int), x=x, y=rng.normal(0, 1, count))


class TestDuplicateX:
    """Duplicate x values are aggregated per contiguous run, once."""

    @pytest.mark.parametrize("aggregate", AGGREGATES)
    def test_real_estate_series_equals_oracle(self, aggregate):
        table = _one_series(5000, 2500)
        params = VisualParams(z="z", x="x", y="y", aggregate=aggregate)
        (got,) = generate_trendlines(table, params)
        (expected,) = oracle.generate_trendlines(table, params)
        assert len(got.x) == 2500
        assert_same_trendline(expected, got)

    def test_one_reduction_per_run_length_not_per_distinct_x(self):
        # 1 000 distinct x with runs of one, two and three rows: three
        # row-wise reductions, where the per-group path ran 1 000.
        x = np.repeat(np.arange(1000.0), np.arange(1000) % 3 + 1)
        rng = np.random.default_rng(2)
        table = Table.from_arrays(
            z=np.zeros(len(x), dtype=int), x=rng.permutation(x), y=rng.normal(0, 1, len(x))
        )
        calls = []

        def counting_mean(block, axis):
            calls.append(block.shape)
            return np.mean(block, axis=axis)

        with mock.patch.dict(kernel._ROW_AGGREGATES, {"mean": counting_mean}):
            (got,) = generate_trendlines(table, VisualParams(z="z", x="x", y="y"))
        assert len(got.x) == 1000
        assert sorted(shape[1] for shape in calls) == [1, 2, 3]
        (expected,) = oracle.generate_trendlines(table, VisualParams(z="z", x="x", y="y"))
        assert_same_trendline(expected, got)


class TestCollection:
    def _collection(self):
        rng = np.random.default_rng(9)
        z = np.repeat(np.arange(6), 20)
        table = Table.from_arrays(
            z=rng.permutation(z), x=rng.normal(0, 5, len(z)), y=rng.normal(0, 1, len(z))
        )
        return generate_trendlines(table, VisualParams(z="z", x="x", y="y"))

    def test_is_a_sequence_of_stable_views(self):
        collection = self._collection()
        assert len(collection) == 6
        assert [t.key for t in collection] == collection.keys
        # The same objects on every access: identity-keyed memos (the shm
        # session's witness, the rank-path index) see one collection.
        assert all(a is b for a, b in zip(collection, collection))
        assert collection[2] is collection[2] and collection[-1] is list(collection)[-1]
        assert isinstance(collection[:4], list) and len(collection[:4]) == 4

    def test_views_share_the_blocks_and_are_read_only(self):
        collection = self._collection()
        for trendline in collection:
            assert np.shares_memory(trendline.x, collection.x)
            assert np.shares_memory(trendline.norm_bin_y, collection.norm_bin_y)
            assert np.shares_memory(trendline.prefix.stacked, collection.prefix)
            assert trendline.prefix.sx.base is not None
            with pytest.raises(ValueError):
                trendline.y[0] = 0.0
        assert collection.nbytes >= 10 * 8 * len(collection.x)

    def test_temporaries_are_bounded_by_the_block_size(self):
        # 400 groups x 2 000 points: generation may hold the collection
        # plus O(block) scratch, never a dozen table-sized temporaries.
        rng = np.random.default_rng(4)
        groups, points = 400, 2000
        order = rng.permutation(groups * points)
        table = Table.from_arrays(
            z=np.repeat(np.arange(groups), points)[order],
            x=np.tile(np.arange(float(points)), groups)[order],
            y=rng.normal(0, 1, groups * points),
        )
        params = VisualParams(z="z", x="x", y="y")
        table.encoding("z")  # built once per table, not per generation
        tracemalloc.start()
        try:
            collection = generate_trendlines(table, params)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(collection) == groups
        assert peak <= 3 * collection.nbytes


# ---------------------------------------------------------------------------
# The x-side as table state
# ---------------------------------------------------------------------------

#: Group-constant filter values.  ``EQUAL_POOL`` meets ``==``/``!=``/``in``
#: only (tuples and strings do not order against numbers); ``ORDERED_POOL``
#: every operator.  ``1``/``1.0``/``True`` are one value under the
#: encoding, and ``NAN`` is the one NaN object of a single-NaN column.
EQUAL_POOL = [1, 1.0, True, 0, "r", (0, "t"), (0.0, "t"), NAN]
ORDERED_POOL = [1, 1.0, True, 0, 2.5, -1, NAN]
FILTER_VALUES = {
    "==": [1, True, 0, "r", NAN],
    "!=": [1, 0.0, "r"],
    "<": [1, 0.5, 2.5],
    ">=": [1, True, 0.0],
    "in": [(1,), (0, "r"), ((0, "t"),), (NAN, 2.5), (True, -1)],
    "between": [(0, 1), (-1, 2.5), (1.0, 1.0)],
}
#: The operators each filter column takes.
COLUMN_OPS = {
    "g": ["==", "!=", "in"],
    "n": ["==", "!=", "<", ">=", "in", "between"],
    "p": ["<", ">=", "between"],
}


def _group_of(key_index: int, slots: dict) -> int:
    """The z group a ``KEYS`` entry falls in (dict equality, NaNs coalesced)."""
    from repro.data.table import canonical_group_key

    return slots.setdefault(canonical_group_key(KEYS[key_index]), len(slots))


@st.composite
def state_cases(draw):
    """A table whose ``g``/``n`` columns are constant per group, ``p`` in some.

    ``g`` holds its NaN cells either as one object (group-constant) or as
    one fresh NaN per row (then ``in`` could tell them apart, so the
    column is filtered row by row), and ``p`` varies in a drawn set of
    groups.  Then a sequence of builds over y columns, aggregates, bin
    widths, filters and push-down plans.
    """
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(KEYS) - 1),
                st.sampled_from(X_POOL),
                st.floats(-100.0, 100.0, allow_nan=False),
                st.sampled_from([2.5, -1.0, NAN, 7.0]),
                st.floats(0.0, 3.0),
            ),
            min_size=1,
            max_size=120,
        )
    )
    slots: dict = {}
    groups = [_group_of(key, slots) for key, *_ in rows]
    g_values = draw(st.lists(st.sampled_from(EQUAL_POOL), min_size=len(slots), max_size=len(slots)))
    n_values = draw(st.lists(st.sampled_from(ORDERED_POOL), min_size=len(slots), max_size=len(slots)))
    p_values = draw(st.lists(st.floats(0.0, 3.0), min_size=len(slots), max_size=len(slots)))
    varying = draw(st.sets(st.integers(0, max(0, len(slots) - 1)), max_size=2))
    fresh_nan = draw(st.booleans())
    z, g, n = (np.empty(len(rows), dtype=object) for _ in range(3))
    x, y1, y2, p = (np.empty(len(rows)) for _ in range(4))
    for row, ((key, x_value, y_value, y2_value, p_value), group) in enumerate(zip(rows, groups)):
        z[row], x[row], y1[row], y2[row] = KEYS[key], x_value, y_value, y2_value
        g_value = g_values[group]
        g[row] = float("nan") if fresh_nan and g_value is NAN else g_value
        n[row] = n_values[group]
        p[row] = p_value if group in varying else p_values[group]
    table = Table.from_arrays(z=z, x=x, y1=y1, y2=y2, g=g, n=n, p=p)
    filter_draw = st.sampled_from(sorted(COLUMN_OPS)).flatmap(
        lambda column: st.sampled_from(COLUMN_OPS[column]).flatmap(
            lambda op: st.sampled_from(FILTER_VALUES[op]).map(
                lambda value: Filter(column, op, value)
            )
        )
    )
    builds = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["y1", "y2"]),
                st.sampled_from(AGGREGATES),
                st.booleans(),
                st.sampled_from([None, 0.7, 2.0, -1.0, NAN]),
                st.lists(filter_draw, max_size=2),
                st.sampled_from(PLANS),
            ),
            min_size=2,
            max_size=5,
        )
    )
    return table, builds


@given(state_cases())
def test_state_builds_equal_the_oracle_and_a_cold_build(case):
    table, builds = case
    with np.errstate(all="ignore"):
        for y, aggregate, normalize_y, bin_width, filters, plan in builds:
            params = VisualParams(
                z="z", x="x", y=y, filters=tuple(filters), aggregate=aggregate,
                bin_width=bin_width,
            )
            expected = oracle.generate_pairs(table, params, normalize_y, plan)
            warm = generate_trendlines(table, params, normalize_y, plan)
            fresh = Table({name: table.column(name) for name in table.column_names})
            cold = generate_trendlines(fresh, params, normalize_y, plan)
            assert_same_pairs(expected, list(zip(warm.groups.tolist(), warm)))
            assert_same_pairs(list(zip(cold.groups.tolist(), cold)), list(zip(warm.groups.tolist(), warm)))
            assert len(warm.group_keys) == len(cold.group_keys)
            assert all(same_key(a, b) for a, b in zip(warm.group_keys, cold.group_keys))


def _region_table(groups=12, points=30, seed=3):
    """``groups`` interleaved series; ``region`` is constant per group, ``f`` is not."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(groups * points)
    z = np.repeat(np.arange(groups), points)
    return Table.from_arrays(
        z=z[order],
        x=np.tile(np.arange(float(points)), groups)[order],
        y=rng.normal(0, 1, groups * points),
        region=np.array(["r{}".format(g % 3) for g in z], dtype=object)[order],
        f=rng.uniform(0, 1, groups * points),
    )


def _state(table):
    return getattr(table, "_extract_state", None)


class TestTableState:
    """What the attached x-side state holds, and when a build reads it."""

    def test_group_constant_filter_reads_the_state(self):
        table = _region_table()
        generate_trendlines(table, VisualParams(z="z", x="x", y="y"))
        misses = _state(table).stats.misses
        params = VisualParams(z="z", x="x", y="y", filters=("region == r1",))
        got = generate_trendlines(table, params)
        assert _state(table).stats.misses == misses
        assert _state(table).stats.hits == 2
        assert len(got) == 4
        assert_same_pairs(
            oracle.generate_pairs(table, params), list(zip(got.groups.tolist(), got))
        )

    def test_row_filters_plans_and_selected_builds_leave_no_state(self):
        table = _region_table()
        for params, plan, selected in [
            (VisualParams(z="z", x="x", y="y", filters=("f < 0.5",)), None, None),
            (VisualParams(z="z", x="x", y="y"), PushdownPlan(keep_span=(3.0, 20.0)), None),
            (VisualParams(z="z", x="x", y="y"), None, range(2, 5)),
        ]:
            kernel.build_collection(table, params, True, plan, selected)
        assert _state(table) is None
        # Telling ``f`` is not group-constant kept no encoding of it.
        assert "f" not in table._encodings

    def test_state_never_pickles(self):
        import pickle

        table = _region_table()
        generate_trendlines(table, VisualParams(z="z", x="x", y="y", bin_width=2.0))
        assert _state(table).stats.bytes > 0
        copy = Table({name: table.column(name) for name in table.column_names})
        assert len(pickle.dumps(table)) == len(pickle.dumps(copy))
        assert _state(pickle.loads(pickle.dumps(table))) is None

    def test_state_evicts_by_bytes(self):
        params = [VisualParams(z="z", x="x", y="y", bin_width=width) for width in (None, 1.5, 2.0)]
        sized, held = _region_table(), []
        for item in params:
            generate_trendlines(sized, item)
            held.append(_state(sized).stats.bytes)
        # Room for the order part and the largest (unbinned) bin part, not
        # for two bin parts.
        budget = held[0]
        table = _region_table()
        with mock.patch.object(kernel, "STATE_BYTES", budget):
            for item in params + params[:1]:
                got = generate_trendlines(table, item)
                assert_same_pairs(
                    oracle.generate_pairs(table, item), list(zip(got.groups.tolist(), got))
                )
        state = _state(table)
        assert state.max_bytes == budget
        assert state.stats.bytes <= budget
        assert len(state) == 2
        assert state.stats.evictions == 3

    def test_concurrent_builds_share_one_state(self):
        # Threads race to create and fill one table's state: each build
        # must still equal a cold one, and the byte count must stay the
        # sum of the parts held (a lost update would break either).
        import sys
        import threading

        params = [
            VisualParams(z="z", x="x", y=y, filters=filters, bin_width=width)
            for y in ("y", "f")
            for filters in ((), ("region == r1",))
            for width in (None, 2.0)
        ]
        expected = [
            generate_trendlines(_region_table(), item).prefix.tobytes() for item in params
        ]
        table, failures = _region_table(), []

        def build(worker):
            for step in range(3 * len(params)):
                index = (worker + step) % len(params)
                got = kernel.build_collection(table, params[index])
                if got.prefix.tobytes() != expected[index]:
                    failures.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=build, args=(n,)) for n in range(6)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert failures == []
        state = _state(table)
        assert state.stats.bytes == sum(cost for _, cost in state._entries.values())
        assert len(state) == 3

    def test_flat_columns_are_constant_exactly_when_their_encoding_is(self):
        # Number and string columns skip the per-row encoding walk; the
        # verdict must be the one their object-typed copies get from it
        # (whose NaN cells are one object, as ``in`` needs).
        z = np.array([0, 1, 0, 2, 1, 2, 3, 3])
        columns = {
            "nan": np.array([NAN, 1.0, NAN, -0.0, 1.0, 0.0, 2.0, 2.0]),
            "varies": np.array([0.5, 1.0, 0.5, 2.0, 1.0, 2.0, 3.0, 3.5]),
            "ints": np.array([4, 5, 4, 6, 5, 6, 7, 7]),
            "flags": np.array([True, False, True, True, False, True, False, True]),
            "names": np.array(["a", "b", "a", "c", "b", "c", "d", "d"]),
        }
        arrays = dict(columns, z=z, x=np.arange(8.0), y=np.arange(8.0))
        for name, values in columns.items():
            copy = values.astype(object)
            copy[values != values] = NAN
            arrays[name + "_obj"] = copy
        table = Table.from_arrays(**arrays)
        verdicts = {name: kernel.constant_within_groups(table, "z", name) for name in columns}
        assert verdicts == {"nan": True, "varies": False, "ints": True, "flags": False, "names": True}
        for name, verdict in verdicts.items():
            assert kernel.constant_within_groups(table, "z", name + "_obj") == verdict
        assert not set(columns) & set(table._encodings)
