"""Regression + property tests for PR 6's Table-layer bug fixes.

* ``group_by`` NaN keys: one coalesced group (or dropped) instead of one
  singleton group per NaN row (``hash(nan)`` is id-based on CPython 3.10+).
* ``from_records`` schema mismatches: loud ``DataError`` instead of
  silent None/NaN injection, with ``lenient=True`` as the escape hatch.
* ``append_rows`` fingerprints: the incrementally extended digest equals
  a from-scratch rehash, across widening, NaN and object batches.
* Tables pickle (the process-without-shm tail transport).
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data.table import Table, canonical_group_key
from repro.data.visual_params import VisualParams
from repro.engine.cache import table_fingerprint
from repro.engine.collection import count_groups
from repro.errors import DataError


class TestGroupByNan:
    def _table(self):
        return Table.from_arrays(
            z=np.array([1.0, float("nan"), 2.0, float("nan"), 1.0]),
            v=np.arange(5.0),
        )

    def test_nan_rows_coalesce_into_one_group(self):
        groups = list(self._table().group_by("z"))
        assert len(groups) == 3  # 1.0, nan, 2.0 — not one group per nan row
        nan_groups = [
            (key, rows) for key, rows in groups
            if isinstance(key, float) and math.isnan(key)
        ]
        assert len(nan_groups) == 1
        assert list(nan_groups[0][1]) == [1, 3]

    def test_nan_policy_drop_skips_nan_rows(self):
        groups = list(self._table().group_by("z", nan_policy="drop"))
        assert len(groups) == 2
        assert all(not (isinstance(k, float) and math.isnan(k)) for k, _ in groups)

    def test_unknown_policy_raises(self):
        with pytest.raises(DataError, match="nan_policy"):
            list(self._table().group_by("z", nan_policy="zap"))

    def test_canonical_key_is_singleton(self):
        a = canonical_group_key(float("nan"))
        b = canonical_group_key(np.float64("nan"))
        assert a is b  # one dict key for every NaN representation
        assert canonical_group_key(2.5) == 2.5

    def test_count_groups_agrees_with_group_by(self):
        table = self._table()
        params = VisualParams(z="z", x="v", y="v")
        assert count_groups(table, params) == len(list(table.group_by("z")))


class TestFromRecordsStrict:
    def test_missing_key_raises(self):
        with pytest.raises(DataError, match="record 1"):
            Table.from_records([{"a": 1, "b": 2}, {"a": 3}])

    def test_unknown_key_raises(self):
        with pytest.raises(DataError, match="lenient"):
            Table.from_records([{"a": 1}, {"a": 2, "b": 9}])

    def test_lenient_restores_padding(self):
        table = Table.from_records(
            [{"a": 1, "b": 2.0}, {"a": 3}], lenient=True
        )
        assert len(table) == 2
        pad = table.column("b")[1]
        assert pad is None or math.isnan(float(pad))

    def test_uniform_records_unaffected(self):
        table = Table.from_records([{"a": 1}, {"a": 2}])
        assert table.column("a").tolist() == [1, 2]

    def test_session_passthrough(self):
        from repro.api import ShapeSearch

        with pytest.raises(DataError):
            ShapeSearch.from_records([{"a": 1, "b": 1}, {"a": 2}])
        session = ShapeSearch.from_records(
            [{"a": 1, "b": 1}, {"a": 2}], lenient=True
        )
        assert len(session.table) == 2
        session.close()


_VALUE = st.one_of(
    st.integers(min_value=-10, max_value=10),
    st.floats(allow_infinity=False, width=32),  # includes NaN
    st.text(alphabet="abcXYZ", max_size=4),
)


class TestFingerprintExtension:
    @given(
        st.lists(_VALUE, min_size=1, max_size=8),
        st.lists(_VALUE, min_size=1, max_size=8),
    )
    def test_incremental_equals_from_scratch(self, head, tail):
        """Satellite 4: digest extension == full rehash, any value mix.

        Columns are built per-batch from a homogeneous schema ("v" holds
        the value, "i" the row index) so batches exercise dtype widening
        (int head + float tail), NaN payloads and object columns — the
        three append flavors with distinct digest paths.
        """
        base = Table.from_records(
            [{"i": i, "v": v} for i, v in enumerate(head)]
        )
        appended = base.append_rows(
            [{"i": len(head) + i, "v": v} for i, v in enumerate(tail)]
        )
        # From-scratch comparator over the same logical rows: head values
        # as the base table materialized them (type inference already
        # applied), tail values as the raw appended records.
        head_records = [
            {name: base.column(name).tolist()[row] for name in base.column_names}
            for row in range(len(base))
        ]
        scratch = Table.from_records(
            head_records
            + [{"i": len(head) + i, "v": v} for i, v in enumerate(tail)]
        )
        assert table_fingerprint(appended) == table_fingerprint(scratch)
        for name in appended.column_names:
            assert appended.column(name).dtype == scratch.column(name).dtype

    def test_widening_append_matches_scratch(self):
        base = Table.from_arrays(v=np.array([1, 2, 3]))
        appended = base.append_rows([{"v": 2.5}])
        scratch = Table.from_arrays(v=np.array([1.0, 2.0, 3.0, 2.5]))
        assert table_fingerprint(appended) == table_fingerprint(scratch)

    def test_chained_appends_match_scratch(self):
        table = Table.from_records([{"v": 0.0}])
        rows = [0.0]
        for batch in range(4):
            new = [float(batch) + j / 7.0 for j in range(3)]
            table = table.append_rows([{"v": value} for value in new])
            rows.extend(new)
        scratch = Table.from_records([{"v": value} for value in rows])
        assert table_fingerprint(table) == table_fingerprint(scratch)


class TestTablePickle:
    def test_round_trip_preserves_content_and_fingerprint(self):
        table = Table.from_arrays(
            z=np.array(["a", "b", "a"], dtype=object),
            x=np.arange(3.0),
        )
        clone = pickle.loads(pickle.dumps(table))
        assert clone.column_names == table.column_names
        assert clone.column("x").tolist() == table.column("x").tolist()
        assert table_fingerprint(clone) == table_fingerprint(table)

    def test_unpickled_arrays_are_read_only(self):
        table = Table.from_arrays(x=np.arange(3.0))
        clone = pickle.loads(pickle.dumps(table))
        with pytest.raises((ValueError, RuntimeError)):
            clone.column("x")[0] = 99.0

    def test_unpickled_table_still_appends(self):
        table = pickle.loads(pickle.dumps(Table.from_arrays(x=np.arange(3.0))))
        grown = table.append_rows([{"x": 3.0}])
        assert len(grown) == 4
