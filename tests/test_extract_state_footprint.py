"""A table's Extract/Group state holds each array once and dies with the table.

The x-side a build reads from its table (``repro.engine.collection``) is
two parts: the (z, x) order — table rows in (group, x) order, ``x`` and
``norm_x``, 24 B per row — shared by every bin width, and one bin part
per bin width — ``bin_x`` and the count, sx and sxx sums per bin (32 B),
plus a bin id per row (8 B) when bins are wider than a point.  Per group
it adds a few offsets.  On a 96 x 128 table an unbinned key therefore
costs 56.3 B per row and a 2-point-bin key 48.3 B (order included); both
together 80.4 B, about 0.94 MiB.  Also runnable as a plain script — the
CI ``minimal-install`` job has no pytest::

    PYTHONPATH=src python tests/test_extract_state_footprint.py
"""

import gc
import weakref

import numpy as np

from repro.data.table import Table
from repro.data.visual_params import VisualParams
from repro.engine.collection import build_collection

GROUPS, POINTS = 96, 128


def _table() -> Table:
    rng = np.random.default_rng(7)
    order = rng.permutation(GROUPS * POINTS)
    return Table.from_arrays(
        z=np.repeat(np.arange(GROUPS), POINTS)[order],
        x=np.tile(np.arange(float(POINTS)), GROUPS)[order],
        y=rng.normal(0, 1, GROUPS * POINTS),
    )


def _expected(bins_per_group: int) -> int:
    """Bytes of the order part plus one bin part, every array counted once."""
    rows, bins = GROUPS * POINTS, GROUPS * bins_per_group
    order = 24 * rows + 8 * GROUPS + 8 * (GROUPS + 1)
    bin_ids = 0 if bins == rows else 8 * rows
    return order + bin_ids + 32 * bins + 8 * GROUPS + 8 * (GROUPS + 1)


def check_footprint() -> list:
    sizes = []
    for bin_width, bins_per_group in ((None, POINTS), (2.0, POINTS // 2)):
        table = _table()
        build_collection(table, VisualParams(z="z", x="x", y="y", bin_width=bin_width))
        state = table._extract_state
        expected = _expected(bins_per_group)
        assert state.stats.bytes == expected, (bin_width, state.stats.bytes, expected)
        sizes.append((bin_width, state.stats.bytes / len(table)))
        # The state lives on the table and nowhere else.
        held = weakref.ref(state)
        del table, state
        gc.collect()
        assert held() is None, "the Extract/Group state outlived its table"
    return sizes


def test_state_is_each_array_once_and_goes_with_its_table():
    check_footprint()


if __name__ == "__main__":
    for bin_width, per_row in check_footprint():
        print(
            "ok: bin width {}: {:.1f} B of Extract/Group state per table row, "
            "freed with the table".format(bin_width, per_row)
        )
