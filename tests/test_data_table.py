"""Tests for the columnar table substrate and filters (§5.1)."""

import json

import numpy as np
import pytest

from repro.data.filters import Filter, apply_filters, parse_filter
from repro.data.table import Table
from repro.data.visual_params import VisualParams
from repro.errors import DataError


class TestConstruction:
    def test_from_arrays(self):
        table = Table.from_arrays(a=[1, 2, 3], b=["x", "y", "z"])
        assert len(table) == 3
        assert set(table.column_names) == {"a", "b"}

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            Table.from_arrays(a=[1, 2], b=[1])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            Table({})

    def test_from_records(self):
        table = Table.from_records([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
        assert list(table.column("a")) == [1.0, 2.0]
        assert table.column("b").dtype == object

    def test_from_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("z,x,y\na,0,1.5\na,1,2.5\nb,0,3.0\n")
        table = Table.from_csv(str(path))
        assert len(table) == 3
        assert table.column("x").dtype == float
        assert table.column("z").dtype == object

    def test_from_csv_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            Table.from_csv(str(path))

    def test_from_csv_skips_blank_lines(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("z,y\na,1\n\nb,2\n\n")
        table = Table.from_csv(str(path))
        assert table.column("z").tolist() == ["a", "b"]
        assert table.column("y").tolist() == [1.0, 2.0]

    def test_from_csv_short_row_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("z,x,y\na,0,1\nb,1\n")
        with pytest.raises(DataError, match="row 3 has 2 fields; the header has 3"):
            Table.from_csv(str(path))

    def test_from_csv_extra_field_rejected(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("z,y\na,1\n\nb,2,9\n")
        with pytest.raises(DataError, match="row 4 has 3 fields; the header has 2"):
            Table.from_csv(str(path))

    def test_from_csv_duplicate_header_rejected(self, tmp_path):
        path = tmp_path / "twice.csv"
        path.write_text("z,y, y\na,1,2\n")
        with pytest.raises(DataError, match="names column 'y' twice"):
            Table.from_csv(str(path))

    def test_from_json(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(json.dumps([{"a": 1, "b": 2}, {"a": 3, "b": 4}]))
        table = Table.from_json(str(path))
        assert list(table.column("a")) == [1.0, 3.0]

    def test_from_json_requires_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"a": 1}))
        with pytest.raises(DataError):
            Table.from_json(str(path))


class TestOperations:
    def _table(self):
        return Table.from_arrays(
            z=np.array(["b", "a", "b", "a"], dtype=object),
            x=np.array([1.0, 0.0, 0.0, 1.0]),
            y=np.array([10.0, 20.0, 30.0, 40.0]),
        )

    def test_unknown_column(self):
        with pytest.raises(DataError) as excinfo:
            self._table().column("nope")
        assert "available" in str(excinfo.value)

    def test_contains(self):
        assert "z" in self._table()
        assert "w" not in self._table()

    def test_where_mask(self):
        table = self._table()
        subset = table.where(table.column("y") > 15)
        assert len(subset) == 3

    def test_where_length_mismatch(self):
        with pytest.raises(DataError):
            self._table().where(np.array([True]))

    def test_sort_by_multiple_keys(self):
        table = self._table().sort_by("z", "x")
        assert list(table.column("z")) == ["a", "a", "b", "b"]
        assert list(table.column("x")) == [0.0, 1.0, 0.0, 1.0]

    def test_group_by_first_seen_order(self):
        groups = list(self._table().group_by("z"))
        assert [key for key, _ in groups] == ["b", "a"]
        assert list(groups[0][1]) == [0, 2]


class TestFilters:
    def _table(self):
        return Table.from_arrays(
            name=np.array(["a", "b", "c"], dtype=object),
            value=np.array([1.0, 5.0, 9.0]),
        )

    @pytest.mark.parametrize(
        "op,value,expected",
        [
            ("==", 5.0, ["b"]),
            ("!=", 5.0, ["a", "c"]),
            (">", 4.0, ["b", "c"]),
            (">=", 5.0, ["b", "c"]),
            ("<", 5.0, ["a"]),
            ("<=", 5.0, ["a", "b"]),
            ("between", (2, 8), ["b"]),
        ],
    )
    def test_comparison_ops(self, op, value, expected):
        table = self._table()
        mask = Filter("value", op, value).mask(table)
        assert list(table.column("name")[mask]) == expected

    def test_in_op(self):
        table = self._table()
        mask = Filter("name", "in", ("a", "c")).mask(table)
        assert list(table.column("name")[mask]) == ["a", "c"]

    def test_unknown_op(self):
        with pytest.raises(DataError):
            Filter("value", "~", 1)

    def test_parse_filter(self):
        parsed = parse_filter("value >= 5")
        assert parsed == Filter("value", ">=", 5.0)
        assert parse_filter("name == b") == Filter("name", "==", "b")
        assert parse_filter("luminosity < 90").op == "<"
        assert parse_filter("x = 3") == Filter("x", "==", 3.0)

    def test_parse_filter_rejects_garbage(self):
        with pytest.raises(DataError):
            parse_filter("???")

    def test_apply_filters_conjunction(self):
        table = self._table()
        result = apply_filters(table, [parse_filter("value > 1"), parse_filter("value < 9")])
        assert list(result.column("name")) == ["b"]

    def test_apply_no_filters(self):
        table = self._table()
        assert apply_filters(table, []) is table


class TestAppendRows:
    def _table(self):
        return Table.from_arrays(
            z=np.array(["a", "a", "b"], dtype=object),
            x=np.array([0.0, 1.0, 0.0]),
            y=np.array([1.0, 2.0, 3.0]),
        )

    def test_rows_appended_original_untouched(self):
        table = self._table()
        grown = table.append_rows([{"z": "b", "x": 1.0, "y": 4.0}])
        assert len(table) == 3 and len(grown) == 4
        assert grown.column("z").tolist() == ["a", "a", "b", "b"]
        assert grown.column("y").tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_returned_table_immutable(self):
        grown = self._table().append_rows([{"z": "b", "x": 1.0, "y": 4.0}])
        with pytest.raises(ValueError):
            grown.column("y")[0] = 99.0

    def test_incremental_fingerprint_matches_full_rehash(self):
        from repro.engine.cache import table_fingerprint

        table = self._table()
        table_fingerprint(table)  # establish the prior digest state
        grown = table.append_rows(
            [{"z": "b", "x": 1.0, "y": 4.0}, {"z": "c", "x": 0.0, "y": 5.0}]
        )
        # The extension pre-seeded the fingerprint: no rehash on use.
        assert grown._fingerprint is not None
        fresh = Table.from_arrays(
            z=np.array(["a", "a", "b", "b", "c"], dtype=object),
            x=np.array([0.0, 1.0, 0.0, 1.0, 0.0]),
            y=np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        )
        assert grown._fingerprint == table_fingerprint(fresh)
        assert grown._fingerprint != table_fingerprint(table)

    def test_chained_appends_stay_incremental(self):
        from repro.engine.cache import table_fingerprint

        grown = self._table()
        for step in range(3):
            grown = grown.append_rows(
                [{"z": "s{}".format(step), "x": 0.0, "y": float(step)},
                 {"z": "s{}".format(step), "x": 1.0, "y": float(step + 1)}]
            )
            assert grown._fingerprint is not None
        rebuilt = Table.from_arrays(
            z=grown.column("z"), x=grown.column("x"), y=grown.column("y")
        )
        assert table_fingerprint(rebuilt) == grown._fingerprint

    def test_int_into_float_column_stays_incremental(self):
        from repro.engine.cache import table_fingerprint

        table = Table.from_arrays(a=np.array([1.0, 2.0]))
        grown = table.append_rows([{"a": 3}])
        assert grown._fingerprint is not None
        assert grown.column("a").dtype == np.float64
        assert grown._fingerprint == table_fingerprint(
            Table.from_arrays(a=np.array([1.0, 2.0, 3.0]))
        )

    def test_huge_int_append_widens_instead_of_crashing(self):
        from repro.engine.cache import table_fingerprint

        table = Table.from_arrays(a=np.array([1, 2, 3], dtype=np.int64))
        grown = table.append_rows([{"a": 2 ** 70}])
        # Widens to float (the _infer_array convention), no crash.
        assert grown.column("a").dtype == np.float64
        assert float(grown.column("a")[-1]) == float(2 ** 70)
        assert table_fingerprint(grown) == table_fingerprint(
            Table.from_arrays(a=np.array([1.0, 2.0, 3.0, float(2 ** 70)]))
        )

    def test_widening_append_falls_back_to_rehash(self):
        from repro.engine.cache import table_fingerprint

        table = Table.from_arrays(a=np.array([1, 2, 3]))
        grown = table.append_rows([{"a": 1.5}])
        # Value preserved (no silent truncation into the int column)...
        assert float(grown.column("a")[-1]) == 1.5
        # ...and the lazy full rehash still agrees with a fresh build.
        assert table_fingerprint(grown) == table_fingerprint(
            Table.from_arrays(a=np.array([1.0, 2.0, 3.0, 1.5]))
        )

    def test_unknown_column_rejected(self):
        with pytest.raises(DataError):
            self._table().append_rows([{"z": "c", "x": 0.0, "y": 1.0, "w": 9}])

    def test_tuple_keys_append(self):
        from repro.engine.cache import table_fingerprint

        keys = [("a", 1), ("b", 2)]
        z = np.empty(len(keys), dtype=object)
        for i, key in enumerate(keys):
            z[i] = key
        table = Table.from_arrays(z=z, x=np.array([0.0, 1.0]), y=np.array([1.0, 2.0]))
        table_fingerprint(table)
        grown = table.append_rows([{"z": ("c", 3), "x": 0.0, "y": 3.0}])
        assert grown.column("z").tolist() == [("a", 1), ("b", 2), ("c", 3)]
        rebuilt = Table.from_arrays(
            z=grown.column("z"), x=grown.column("x"), y=grown.column("y")
        )
        assert grown._fingerprint == table_fingerprint(rebuilt)

    def test_missing_column_rejected(self):
        # A forgotten key must not silently inject None/NaN into a series.
        with pytest.raises(DataError):
            self._table().append_rows([{"z": "c", "x": 0.0}])

    def test_empty_append_returns_self(self):
        table = self._table()
        assert table.append_rows([]) is table

    def test_streaming_workload_keeps_generation_consistent(self):
        """Appended tables generate exactly what a fresh build would."""
        from repro.engine.pipeline import generate_trendlines

        params = VisualParams(z="z", x="x", y="y")
        table = self._table()
        grown = table.append_rows(
            [{"z": "b", "x": 1.0, "y": 4.0}, {"z": "b", "x": 2.0, "y": 2.0}]
        )
        fresh = Table.from_arrays(
            z=np.array(["a", "a", "b", "b", "b"], dtype=object),
            x=np.array([0.0, 1.0, 0.0, 1.0, 2.0]),
            y=np.array([1.0, 2.0, 3.0, 4.0, 2.0]),
        )
        got = generate_trendlines(grown, params)
        expected = generate_trendlines(fresh, params)
        assert [t.key for t in got] == [t.key for t in expected]
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a.norm_bin_y, b.norm_bin_y)


class TestVisualParams:
    def test_string_filters_coerced(self):
        params = VisualParams(z="z", x="x", y="y", filters=("y > 5",))
        assert isinstance(params.filters[0], Filter)

    def test_bad_aggregate(self):
        with pytest.raises(DataError):
            VisualParams(z="z", x="x", y="y", aggregate="mode")

    def test_with_filters(self):
        params = VisualParams(z="z", x="x", y="y")
        extended = params.with_filters("y > 5")
        assert len(extended.filters) == 1
        assert len(params.filters) == 0

    def test_bad_filter_type(self):
        with pytest.raises(DataError):
            VisualParams(z="z", x="x", y="y", filters=(42,))
