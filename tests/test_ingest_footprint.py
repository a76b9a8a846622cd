"""A CSV load peaks near twice the finished columns and keeps one copy.

``Table.from_csv`` converts rows in chunks straight into typed columns
and shares one ``str`` per distinct value, so loading never holds the
file as row lists of strings (about 12x the columns) and the table does
not keep one string per cell (about 3.2x).  The check runs in a fresh
interpreter under ``tracemalloc``, so nothing this process already holds
is counted.  Also runnable as a plain script — the CI ``minimal-install``
job has no pytest::

    PYTHONPATH=src python tests/test_ingest_footprint.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Largest tracemalloc peak during the load, in multiples of the columns.
PEAK_RATIO = 3.0
#: Largest memory the loaded table retains, in multiples of the columns.
RETAINED_RATIO = 1.2

PROBE = """
import json, os, sys, tempfile, tracemalloc
import numpy as np
from repro.data.table import Table

rows = 200_000
x = np.arange(rows)
y = np.random.default_rng(0).normal(100.0, 5.0, size=rows)
handle, path = tempfile.mkstemp(suffix=".csv")
with os.fdopen(handle, "w") as out:
    out.write("z,x,y\\n")
    np.savetxt(out, np.column_stack([x // 500, x % 500, y]),
               fmt=["g%d", "%d", "%.17g"], delimiter=",")
try:
    tracemalloc.start()
    table = Table.from_csv(path)
    retained, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
finally:
    os.unlink(path)
columns = sum(table.column(name).nbytes for name in table.column_names)
print(json.dumps({"rows": len(table), "columns": columns, "peak": peak,
                  "retained": retained}))
"""


def measure() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    output = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, check=True, capture_output=True, text=True
    ).stdout
    return json.loads(output)


def check_footprint() -> dict:
    sizes = measure()
    assert sizes["rows"] == 200_000
    assert sizes["peak"] <= PEAK_RATIO * sizes["columns"], sizes
    assert sizes["retained"] <= RETAINED_RATIO * sizes["columns"], sizes
    return sizes


def test_csv_load_peaks_near_twice_the_columns():
    check_footprint()


if __name__ == "__main__":
    sizes = check_footprint()
    print(
        "ok: a {rows}-row CSV load peaks at {peak:.2f}x and retains {retained:.2f}x "
        "its columns".format(
            rows=sizes["rows"],
            peak=sizes["peak"] / sizes["columns"],
            retained=sizes["retained"] / sizes["columns"],
        )
    )
