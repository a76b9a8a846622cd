"""A shape index stores only the buckets that can hold a segment, in float32.

A pyramid level cut into ``W`` super-bins has buckets ``(a, b)`` for a
segment starting in super-bin ``a`` and ending in ``b``; only ``a ≤ b``
can hold one, so each level keeps its ``W(W+1)/2``-bucket upper
triangle, once for the atan minima and once for the maxima, each a
float32 rounded outward.  The packed block is therefore
``8 · C · Σ W(W+1)/2`` bytes for a class of ``C`` trendlines — about
0.26x of dense float64 ``(W, W)`` tiles at 32/16/8/4 super-bins — and
the artifact store's ``block.f32`` is that block, byte for byte.

The index's level-bound memo holds one float64 per member per level for
each query signature it has bounded — ``8 · C · levels`` bytes per
(signature, class) — and evicts by bytes so that it never holds more
than the block's own size.  Also runnable as a plain script — the CI
``minimal-install`` job has no pytest::

    PYTHONPATH=src python tests/test_index_footprint.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.algebra import builder as q
from repro.engine.artifacts import artifact_dir, save_index
from repro.engine.executor import ShapeSearchEngine
from repro.engine.shape_index import ShapeIndex
from repro.engine.trendline import build_trendline

#: ``(bins, trendlines, super-bins per level)``: a 64-bin class and a
#: 2 000-bin one both reach the 32-super-bin cap at the finest level.
CLASSES = [(64, 40, [32, 16, 8, 4]), (2000, 3, [32, 16, 8, 4])]

#: Largest packed size, as a share of dense float64 ``(W, W)`` tiles.
DENSE_RATIO = 0.265

#: Distinct slope targets bounded per index: more signatures than a
#: 4-level class's memo budget holds (710 / 4 ≈ 177), so it must evict.
SIGNATURES = 200


def _trendlines(bins: int, count: int):
    rng = np.random.default_rng(bins)
    x = np.arange(bins, dtype=float)
    return [
        build_trendline("b{}-{}".format(bins, i), x, rng.normal(0, 1, bins).cumsum())
        for i in range(count)
    ]


def check_footprint() -> list:
    sizes = []
    for bins, count, widths in CLASSES:
        index = ShapeIndex.build(_trendlines(bins, count))
        values, layout = index.pack()
        (_n_bins, _positions, shapes), = layout[1]
        assert [W for _w, W, _offset in shapes] == widths, shapes
        expected = 8 * count * sum(W * (W + 1) // 2 for W in widths)
        dense = 16 * count * sum(W * W for W in widths)
        assert values.dtype == np.float32, values.dtype
        assert index.nbytes == expected, (bins, index.nbytes, expected)
        assert index.nbytes <= DENSE_RATIO * dense, (bins, index.nbytes, dense)
        with tempfile.TemporaryDirectory() as root:
            key = ("footprint", bins)
            save_index(root, key, index, "fingerprint")
            on_disk = (Path(artifact_dir(root, key)) / "block.f32").stat().st_size
        assert on_disk == index.nbytes, (bins, on_disk, index.nbytes)
        sizes.append((bins, count, index.nbytes, dense))
    return sizes


def check_memo_footprint() -> list:
    engine = ShapeSearchEngine()
    sizes = []
    for bins, count, widths in CLASSES:
        index = ShapeIndex.build(_trendlines(bins, count))
        memo = index._bounds_memo
        per_signature = 8 * count * len(widths)
        for step, theta in enumerate(np.linspace(-80.0, 80.0, SIGNATURES)):
            index.upper_bounds(engine.compile(q.slope(float(theta))))
            if step == 0:
                assert memo.stats.bytes == per_signature, (bins, memo.stats.bytes)
            assert memo.stats.bytes <= index.nbytes, (bins, memo.stats.bytes, index.nbytes)
        assert memo.max_bytes == index.nbytes and memo.stats.evictions > 0, bins
        sizes.append((bins, count, per_signature, memo.stats.bytes, index.nbytes))
    return sizes


def test_packed_index_is_the_upper_triangles():
    check_footprint()


def test_bound_memo_stays_within_the_index_size():
    check_memo_footprint()


if __name__ == "__main__":
    for bins, count, packed, dense in check_footprint():
        print(
            "ok: {count} x {bins}-bin trendlines pack into {packed} bytes, "
            "{ratio:.3f}x dense float64 tiles, same in block.f32".format(
                count=count, bins=bins, packed=packed, ratio=packed / dense,
            )
        )
    for bins, count, per_signature, held, budget in check_memo_footprint():
        print(
            "ok: {count} x {bins}-bin level-bound memo holds {per} bytes per query "
            "signature, {held} of its {budget}-byte budget after {n} signatures".format(
                count=count, bins=bins, per=per_signature, held=held,
                budget=budget, n=SIGNATURES,
            )
        )
