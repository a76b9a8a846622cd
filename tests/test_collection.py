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
