"""``Table.from_csv`` builds typed columns chunk by chunk, and nothing shows.

The columnar loader must give exactly what the row-list loader it
replaced gave (``tests/oracles/ingest.py``) on every well-formed file:
column names and order, dtypes, the bits of every float, the raw strings
of object columns, ``content_fingerprint`` and each object column's
dictionary encoding.  On top of that, an object column holds one ``str``
instance per distinct value, and only a column whose first non-float
value comes after converted rows is read a second time.
"""

import csv
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data import table as table_module
from repro.data.table import Table, content_fingerprint

from tests.oracles.ingest import load_csv

#: Values every numeric column draws from: ``float()`` parses them all,
#: padding and digit underscores included.
FLOATS = st.one_of(
    st.sampled_from(["nan", "NaN", "inf", "-inf", "-0.0", "1_000", " 2.5 ", "3", "+4", "1e308"]),
    st.floats(allow_nan=False, width=64).map(repr),
)
#: Values that make a column an object column: empty fields, and fields
#: holding the delimiters, quotes and newlines a writer has to quote.
STRINGS = st.one_of(
    st.sampled_from(["", "a", "b b", "x,y", 'say "hi"', "two\nlines", "semi;colon", "tab\tbed"]),
    st.text(alphabet='ab ,;"\n\t', max_size=4),
).filter(lambda value: not _parses(value))


def _parses(value):
    try:
        float(value)
    except ValueError:
        return False
    return True


@st.composite
def csv_cases(draw):
    """A well-formed CSV text as (header, rows, delimiter, quoting, chunk)."""
    chunk = draw(st.sampled_from([1, 2, 3, 7]))
    count = draw(st.integers(1, 24))
    kinds = draw(st.lists(st.sampled_from(["float", "object", "late"]), min_size=1, max_size=4))
    names = draw(
        st.lists(st.text(alphabet="xyz", min_size=1, max_size=3), min_size=len(kinds),
                 max_size=len(kinds), unique=True)
    )
    pads = draw(st.lists(st.sampled_from(["", " ", "  "]), min_size=2 * len(kinds),
                         max_size=2 * len(kinds)))
    header = [pads[2 * i] + name + pads[2 * i + 1] for i, name in enumerate(names)]
    columns = []
    for kind in kinds:
        values = draw(st.lists(FLOATS, min_size=count, max_size=count))
        if kind == "object":
            values = draw(st.lists(STRINGS | FLOATS, min_size=count, max_size=count))
            values[draw(st.integers(0, count - 1))] = draw(STRINGS)
        elif kind == "late" and count > chunk:
            # The first non-float value lands after the first chunk.
            values[draw(st.integers(chunk, count - 1))] = draw(STRINGS)
        columns.append(values)
    rows = [list(row) for row in zip(*columns)]
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    return header, rows, delimiter, quoting, chunk


def _write(header, rows, delimiter, quoting):
    handle, path = tempfile.mkstemp(suffix=".csv")
    with os.fdopen(handle, "w", newline="") as out:
        writer = csv.writer(out, delimiter=delimiter, quoting=quoting)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _assert_same_table(loaded, reference):
    assert loaded.column_names == reference.column_names
    assert len(loaded) == len(reference)
    for name in reference.column_names:
        got, want = loaded.column(name), reference.column(name)
        assert got.dtype == want.dtype, name
        if want.dtype == object:
            assert got.tolist() == want.tolist()
            assert all(type(value) is str for value in got)
            # One instance per distinct value.
            assert len({id(value) for value in got}) == len(set(got.tolist()))
            mine, theirs = loaded.encoding(name), reference.encoding(name)
            assert mine.keys == theirs.keys
            np.testing.assert_array_equal(mine.codes, theirs.codes)
        else:
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()
    assert content_fingerprint(loaded) == content_fingerprint(reference)


@given(csv_cases())
def test_columnar_load_matches_the_row_list_loader(case):
    header, rows, delimiter, quoting, chunk = case
    path = _write(header, rows, delimiter, quoting)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(table_module, "CSV_CHUNK_ROWS", chunk)
            loaded = Table.from_csv(path, delimiter=delimiter)
        _assert_same_table(loaded, load_csv(path, delimiter=delimiter))
    finally:
        os.unlink(path)


class TestSecondPass:
    def _load_counting_passes(self, tmp_path, monkeypatch, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        passes = []
        chunks = table_module._csv_chunks

        def counting(*args):
            passes.append(args)
            return chunks(*args)

        monkeypatch.setattr(table_module, "CSV_CHUNK_ROWS", 2)
        monkeypatch.setattr(table_module, "_csv_chunks", counting)
        loaded = Table.from_csv(str(path))
        _assert_same_table(loaded, load_csv(str(path)))
        return loaded, len(passes)

    def test_late_string_rereads_the_file(self, tmp_path, monkeypatch):
        loaded, passes = self._load_counting_passes(
            tmp_path, monkeypatch, "z,y\n1,1\n2,2\n3,3\nlate,4\n5,5\n"
        )
        assert loaded.column("z").tolist() == ["1", "2", "3", "late", "5"]
        assert loaded.column("y").dtype == np.float64
        assert passes == 2

    def test_string_in_the_first_chunk_reads_once(self, tmp_path, monkeypatch):
        loaded, passes = self._load_counting_passes(
            tmp_path, monkeypatch, "z,y\n1,1\nearly,2\n3,3\n4,4\n"
        )
        assert loaded.column("z").tolist() == ["1", "early", "3", "4"]
        assert passes == 1
