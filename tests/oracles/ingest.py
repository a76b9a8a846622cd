"""The row-list CSV loader: the reference the columnar ``Table.from_csv`` must match.

This is the loader ``Table.from_csv`` shipped before it built columns as
it read: every row is held as a list of strings (``list(reader)``), then
each column is inferred whole by ``_infer_array`` — float64 when every
value passes ``float()``, otherwise an object array of the raw strings,
one ``str`` per cell.  It keeps that loader's behaviour on malformed
files too (a blank line or a short row raises ``IndexError``, an extra
field is dropped, a repeated header name keeps the last column), so it
is only a reference for well-formed files.
"""

import csv
from typing import Dict

import numpy as np

from repro.data.table import Table, _infer_array
from repro.errors import DataError


def load_csv(path: str, delimiter: str = ",") -> Table:
    with open(path, newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("CSV file {!r} is empty".format(path)) from None
        rows = list(reader)
    if not rows:
        raise DataError("CSV file {!r} has no data rows".format(path))
    columns: Dict[str, np.ndarray] = {}
    for index, name in enumerate(header):
        columns[name.strip()] = _infer_array([row[index] for row in rows])
    return Table(columns)
