"""Artifact store + block-batched bounds: round-trip, parity, fallbacks.

Two contracts pinned here:

* **Bitwise fidelity** — an index saved to the artifact store and
  memory-mapped back is the in-memory index bit for bit (packed block,
  layout, witnesses, every query bound), and the block-batched
  ``upper_bounds`` kernel equals the one-candidate scalar oracle
  (``tests/oracles/index_bounds.py``) float for float across
  randomized collections, queries and floors.

* **Never a wrong index** — every way an artifact can be bad (missing,
  corrupted, truncated, version-skewed, built from a different table)
  makes ``load_index`` miss, and the engine degrades to a rebuild whose
  results are byte-identical to a storeless run.
"""

import hashlib
import json
import os
import pickle

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.algebra import builder as q
from repro.api import ShapeSearch
from repro.data.visual_params import VisualParams
from repro.engine.artifacts import (
    ARTIFACT_BUDGET_ENV,
    ARTIFACT_FORMAT,
    artifact_budget,
    artifact_dir,
    load_index,
    prune,
    save_index,
)
from repro.algebra.primitives import Location
from repro.engine.cache import table_fingerprint
from repro.engine.chains import Chain, ChainUnit, CompiledQuery
from repro.engine.executor import ShapeSearchEngine
from repro.engine.pipeline import generate_trendlines
from repro.engine.units import MIN_SEGMENT_BINS, LineUnit, SlopeUnit
from repro.errors import ExecutionError
from repro.engine import shape_index
from repro.engine.shape_index import ShapeIndex, survives_floor

from tests.conftest import make_trendline
from tests.oracles import index_bounds as bounds_oracle
from tests.oracles import index_build as build_oracle
from tests.test_shape_index import (
    _FUZZY_UNIT,
    SERIES,
    _ragged,
    _signature,
    _smooth_table,
)

UP_DOWN = q.concat(q.up(), q.down())
PARAMS = VisualParams(z="z", x="x", y="y")

QUERIES = [
    q.concat(q.up(), q.down()),
    q.concat(q.down(), q.flat(), q.up()),
    q.up(),
    q.concat(q.up(sharp=True), q.down()),
]


def _edge_length(n):
    """Does an ``n``-bin pyramid pad a coarsening or stop its sweep short?"""
    shapes = shape_index._level_shapes(n)
    if not shapes:
        return False
    w, W = shapes[0]
    odd = any(W % 2 for _w, W in shapes[:-1])
    return odd or n - (W - 1) * w < MIN_SEGMENT_BINS


#: Bin counts whose finest or a coarsened level has an odd super-bin
#: count, or whose last super-bin is too narrow to start a segment.
_EDGE_LENGTHS = [n for n in range(8, 400) if _edge_length(n)]


def _random_collection(rng, count=30):
    """Trendlines with varied bin counts, including unindexable ones."""
    choices = [9, 24, 24, 40, 64, 130]
    trendlines = []
    for index in range(count):
        bins = choices[int(rng.integers(len(choices)))]
        y = rng.normal(0, 1, bins).cumsum()
        trendlines.append(make_trendline(y, key="t{:03d}".format(index)))
    return trendlines


def _compiled(node):
    return ShapeSearchEngine()._compile(node)


#: Every unit the index bounds: each slope kind (two θ targets), ``any``,
#: ``empty`` and a line unit, plain and negated.
_BOUNDED_UNITS = [
    SlopeUnit(kind, theta=theta, negated=negated)
    for kind, theta in [("up", None), ("down", None), ("flat", None),
                        ("slope", 40.0), ("slope", -20.0), ("any", None),
                        ("empty", None)]
    for negated in (False, True)
] + [LineUnit(Location(y_start=0.0, y_end=1.0), negated=negated)
     for negated in (False, True)]


def _chains(*chains):
    """A compiled query straight from ``(unit, weight)`` lists."""
    return CompiledQuery(
        node=None,
        chains=[
            Chain(tuple(ChainUnit(unit, weight) for unit, weight in chain))
            for chain in chains
        ],
    )


def _empty_some_buckets(index, rng):
    """Blank one entry's finest level outright, and random buckets elsewhere.

    Written into the packed triangles the kernel reads, before anything
    unpacks ``index.entries``, so the oracle's dense copies carry them too.
    """
    members = [
        (levels, row)
        for _n_bins, positions, levels in index._tiles
        for row in range(len(positions))
    ]
    for levels, row in members[:1]:
        _w, amin, amax = levels[0]
        amin[row] = np.inf
        amax[row] = -np.inf
    for levels, row in members[1:6]:
        for _w, amin, amax in levels:
            blank = rng.random(amin.shape[1]) < 0.3
            amin[row, blank] = np.inf
            amax[row, blank] = -np.inf


def _write_old_store(directory, block, stored, fingerprint, version):
    """Write an artifact entry as formats 2 and 3 did: float64 ``block.f64``.

    ``stored`` is the pickled ``((count, groups), witnesses)`` pair.
    """
    layout = pickle.dumps(stored, protocol=pickle.HIGHEST_PROTOCOL)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "block.f64").write_bytes(block)
    (directory / "layout.pkl").write_bytes(layout)
    (directory / "manifest.json").write_text(json.dumps({
        "format": version,
        "fingerprint": fingerprint,
        "count": stored[0][0],
        "values_len": len(block) // 8,
        "block_sha1": hashlib.sha1(block).hexdigest(),
        "layout_sha1": hashlib.sha1(layout).hexdigest(),
    }))


def _write_dense_store(directory, index, fingerprint, pyramids=None):
    """Save ``index`` as format 2 did; returns the block's float count.

    Format 2 held each group level as dense float64 ``(members, W, W)``
    tiles — min tiles, then max tiles — with every bucket below the
    diagonal an empty sentinel, at offsets a dense layout records.  The
    buckets are ``pyramids[position]`` (the exact per-trendline sweep,
    ``tests/oracles/index_build.py``) when given, else the index's own.
    """
    count, groups = index.pack()[1]
    entries = pyramids or [
        entry.levels if entry is not None else None for entry in index.entries
    ]
    parts, dense_groups, total = [], [], 0
    for n_bins, positions, shapes in groups:
        dense_shapes = []
        for depth, (w, W, _offset) in enumerate(shapes):
            dense_shapes.append((w, W, total))
            for side in (1, 2):
                parts.append(
                    np.stack([entries[p][depth][side] for p in positions]).ravel()
                )
            total += 2 * len(positions) * W * W
        dense_groups.append((n_bins, positions, dense_shapes))
    block = np.concatenate(parts).tobytes()
    _write_old_store(
        directory, block, ((count, dense_groups), index.witnesses()), fingerprint, 2
    )
    return total


class TestBatchedBoundsParity:
    """upper_bounds == the scalar oracle, float for float.

    Each check also makes a second call, which the index's level-bound
    memo serves (wholly, or in part after a floored first call).
    """

    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_parity(self, seed):
        rng = np.random.default_rng(seed)
        index = ShapeIndex.build(_random_collection(rng))
        for node in QUERIES:
            compiled = _compiled(node)
            scalar = bounds_oracle.upper_bounds(index, compiled)
            batched = index.upper_bounds(compiled)
            assert batched.dtype == np.float64
            assert batched.tobytes() == scalar.tobytes()
            assert index.upper_bounds(compiled).tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_floored_parity_freezes_like_early_exit(self, seed):
        # With a bounded floor the scalar oracle stops at the first
        # coarse level that fails survives_floor; the batched kernel's
        # alive-mask freeze must return the same coarse float.
        rng = np.random.default_rng(100 + seed)
        index = ShapeIndex.build(_random_collection(rng))
        compiled = _compiled(UP_DOWN)
        finite = index.upper_bounds(compiled)
        finite = finite[np.isfinite(finite)]
        for floor in (-1.0, float(np.median(finite)), 2.0):
            scalar = bounds_oracle.upper_bounds(index, compiled, floor)
            batched = index.upper_bounds(compiled, floor)
            assert batched.tobytes() == scalar.tobytes()
            again = index.upper_bounds(compiled, floor)
            assert again.tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("unit", _BOUNDED_UNITS, ids=repr)
    def test_every_unit_kind_matches_scalar_oracle(self, unit):
        # The batched kernel takes one endpoint where the oracle takes
        # the maximum of two, and lets the empty-bucket sentinels flow
        # where the oracle substitutes zeros: same floats regardless, and
        # no FP exception on the way.  The collection mixes bin counts
        # (several n_bins groups, unindexable entries) and carries
        # buckets emptied by hand, one entry's whole level included.
        rng = np.random.default_rng(5)
        index = ShapeIndex.build(_random_collection(rng, count=24))
        _empty_some_buckets(index, rng)
        up = SlopeUnit("up")
        queries = [
            _chains([(unit, 1.0)]),
            _chains([(unit, 0.5), (up, 0.5)]),
            _chains([(unit, 0.25), (up, 0.5), (unit, 0.25)]),
            _chains([(up, 0.5), (unit, 0.5)], [(unit, 0.2), (up, 0.3), (unit, 0.5)]),
        ]
        for compiled in queries:
            with np.errstate(all="raise"):
                batched = index.upper_bounds(compiled)
                scalar = bounds_oracle.upper_bounds(index, compiled)
                again = index.upper_bounds(compiled)
            assert batched.tobytes() == scalar.tobytes()
            assert again.tobytes() == scalar.tobytes()

    @given(
        chains=st.lists(
            st.lists(_FUZZY_UNIT, min_size=1, max_size=6), min_size=1, max_size=3
        ),
        specs=st.lists(
            st.tuples(st.integers(8, 900), st.sampled_from(SERIES), st.integers(0, 999)),
            min_size=1,
            max_size=6,
        ),
        short=st.integers(8, 24),
        floor=st.sampled_from([-np.inf]) | st.floats(-1.0, 1.0),
    )
    # At 16 bins a leaf is the unit floor, so an edge unit shares its
    # memo key with an equal middle unit: the first chain's last unit
    # and the second chain's first unit are views of that middle tile.
    @example(chains=[[q.down(), q.up(), q.up()], [q.up(), q.down(), q.flat()]],
             specs=[(16, "constant", 1)], short=8, floor=-np.inf)
    @example(chains=[[q.flat(), q.flat(), q.flat(), q.flat()], [q.down()]],
             specs=[(24, "walk", 2), (900, "two-valued", 3), (33, "nan", 4)],
             short=17, floor=0.25)
    def test_bounds_equal_the_oracle_bit_for_bit(self, chains, specs, short, floor):
        # Whatever the fuzzy chains, the ragged lengths (every level
        # width, empty buckets from NaN and constant series, one length
        # short enough that a leaf is the unit floor) and the floor, the
        # batched kernel's floats are the one-candidate oracle's.
        trendlines = _ragged(specs + [(short, "walk", 0)])
        index = ShapeIndex.build(trendlines)
        compiled = _compiled(q.or_(*[q.concat(*units) for units in chains]))
        expected = bounds_oracle.upper_bounds(index, compiled, floor).tobytes()
        assert index.upper_bounds(compiled, floor).tobytes() == expected
        # The unfloored second call reads the rows the first evaluated.
        unfloored = bounds_oracle.upper_bounds(index, compiled).tobytes()
        assert index.upper_bounds(compiled).tobytes() == unfloored

    @given(
        chains=st.lists(
            st.lists(_FUZZY_UNIT, min_size=1, max_size=4), min_size=1, max_size=2
        ),
        specs=st.lists(
            st.tuples(
                st.sampled_from(_EDGE_LENGTHS),
                st.sampled_from(["steps", "steps", "constant", "walk"]),
                st.integers(0, 999),
            ),
            min_size=1,
            max_size=5,
        ),
        floor=st.sampled_from([-np.inf, 0.0]) | st.floats(-1.0, 1.0),
    )
    @example(chains=[[q.opposite(q.up())]], specs=[(13, "constant", 3)],
             floor=-np.inf)
    @example(chains=[[q.down(), q.opposite(q.flat()), q.up()]],
             specs=[(97, "steps", 1), (30, "steps", 2), (49, "walk", 3)],
             floor=0.0)
    def test_packed_kernel_equals_oracle_on_edge_layouts(self, chains, specs, floor):
        # The triangle layout's corners: odd super-bin counts that still
        # coarsen (the pair-combine pads a row and a column), a last
        # super-bin of one bin (the build's sweep stops before its row),
        # and flat runs whose bounds come out as −0.0.  The full pass is
        # the dense one-candidate oracle's floats.
        trendlines = _ragged(specs)
        index = ShapeIndex.build(trendlines)
        compiled = _compiled(q.or_(*[q.concat(*units) for units in chains]))
        expected = bounds_oracle.upper_bounds(index, compiled, floor).tobytes()
        assert index.upper_bounds(compiled, floor).tobytes() == expected
        assert index.upper_bounds(compiled, floor).tobytes() == expected

    def test_flat_run_bounds_keep_their_negative_zero(self):
        # A constant series under a negated ``up``: the bound is −0.0 in
        # the kernel and the oracle alike, sign bit included.
        index = ShapeIndex.build(_ragged([(13, "constant", 3)]))
        compiled = _compiled(q.concat(q.opposite(q.up())))
        bounds = index.upper_bounds(compiled)
        assert bounds[0] == 0.0 and np.signbit(bounds[0])
        assert bounds.tobytes() == bounds_oracle.upper_bounds(index, compiled).tobytes()

    @pytest.mark.parametrize("elements", [1, 3 * 144, 1 << 30])
    def test_bounds_do_not_depend_on_the_pass_size(self, elements, monkeypatch):
        # A level is evaluated BLOCK_ELEMENTS at a time (one row per
        # pass, three 12x12 rows, everything at once): per-candidate
        # independent, so the floats cannot move.  Each patched call
        # runs on a fresh copy of the index, whose memo is empty.
        from repro.engine import shape_index

        rng = np.random.default_rng(9)
        index = ShapeIndex.build(_random_collection(rng, count=30))
        compiled = _compiled(UP_DOWN)
        expected = index.upper_bounds(compiled)
        monkeypatch.setattr(shape_index, "BLOCK_ELEMENTS", elements)
        fresh = ShapeIndex.from_packed(*index.pack())
        assert fresh.upper_bounds(compiled).tobytes() == expected.tobytes()
        fresh = ShapeIndex.from_packed(*index.pack())
        assert fresh.upper_bounds(compiled, 0.5).tobytes() == (
            bounds_oracle.upper_bounds(index, compiled, 0.5).tobytes()
        )

    def test_empty_index_bounds_are_well_formed(self):
        bounds = ShapeIndex.build([]).upper_bounds(_compiled(UP_DOWN))
        assert bounds.dtype == np.float64
        assert bounds.shape == (0,)

    def test_unindexable_entries_bound_at_inf(self):
        short = [make_trendline(np.arange(5.0), key="s")]
        bounds = ShapeIndex.build(short).upper_bounds(_compiled(UP_DOWN))
        assert bounds.dtype == np.float64
        assert np.isposinf(bounds).all()

    def test_survives_floor_empty_candidates(self):
        verdict = survives_floor(np.zeros(0), 0.5)
        assert verdict.dtype == bool
        assert verdict.shape == (0,)


KEY = ("params-repr", True, None, "float64")


class TestArtifactRoundTrip:
    """save → load is the in-memory index, bit for bit."""

    def _index(self, seed=0, count=30):
        return ShapeIndex.build(
            _random_collection(np.random.default_rng(seed), count)
        )

    def test_bitwise_round_trip(self, tmp_path):
        index = self._index()
        save_index(tmp_path, KEY, index, "fp")
        loaded = load_index(tmp_path, KEY, "fp")
        assert loaded is not None
        values, layout = index.pack()
        lvalues, llayout = loaded.pack()
        assert np.asarray(lvalues).tobytes() == values.tobytes()
        assert llayout == layout
        witnesses = [
            entry.witness if entry is not None else None
            for entry in index.entries
        ]
        assert [
            entry.witness if entry is not None else None
            for entry in loaded.entries
        ] == witnesses
        compiled = _compiled(UP_DOWN)
        assert (
            loaded.upper_bounds(compiled).tobytes()
            == index.upper_bounds(compiled).tobytes()
        )

    def test_loaded_tiles_are_plain_views_of_the_mapping(self, tmp_path):
        index = self._index(seed=5)
        save_index(tmp_path, KEY, index, "fp")
        loaded = load_index(tmp_path, KEY, "fp")
        mapping = loaded.pack()[0]
        assert isinstance(mapping, np.memmap)
        tiles = [
            tile
            for _n_bins, _positions, levels in loaded._tiles
            for _w, amin, amax in levels
            for tile in (amin, amax)
        ]
        assert tiles
        for tile in tiles:
            assert type(tile) is np.ndarray
            assert np.shares_memory(tile, mapping)
        for query in (UP_DOWN, q.up()):
            compiled = _compiled(query)
            assert (
                loaded.upper_bounds(compiled).tobytes()
                == index.upper_bounds(compiled).tobytes()
            )

    def test_loaded_index_extends_like_lineage(self, tmp_path):
        # Persisted witnesses keep extend-don't-rebuild alive across the
        # save/load boundary: unchanged trendlines reuse the mapped
        # entries by object, and the result equals a fresh build bitwise.
        rng = np.random.default_rng(3)
        base = _random_collection(rng, count=12)
        save_index(tmp_path, KEY, ShapeIndex.build(base), "fp")
        loaded = load_index(tmp_path, KEY, "fp")
        grown = base + _random_collection(np.random.default_rng(4), count=4)
        extended = loaded.extended(grown)
        fresh = ShapeIndex.build(grown)
        assert extended.pack()[0].tobytes() == fresh.pack()[0].tobytes()
        reused = sum(
            1
            for old, new in zip(loaded.entries, extended.entries)
            if old is not None and old is new
        )
        assert reused > 0

    def test_empty_index_round_trip(self, tmp_path):
        save_index(tmp_path, KEY, ShapeIndex.build([]), "fp")
        loaded = load_index(tmp_path, KEY, "fp")
        assert loaded is not None
        assert len(loaded) == 0


class TestArtifactFallbacks:
    """Every bad-artifact path misses; none ever serves wrong buckets."""

    def _saved(self, tmp_path):
        index = ShapeIndex.build(
            _random_collection(np.random.default_rng(1), 20)
        )
        save_index(tmp_path, KEY, index, "fp")
        return artifact_dir(tmp_path, KEY)

    def test_missing_artifact(self, tmp_path):
        assert load_index(tmp_path, ("other",), "fp") is None

    def test_fingerprint_mismatch(self, tmp_path):
        self._saved(tmp_path)
        assert load_index(tmp_path, KEY, "other-table") is None

    def test_version_skew(self, tmp_path):
        directory = self._saved(tmp_path)
        manifest = json.loads((directory / "manifest.json").read_text())
        manifest["format"] = ARTIFACT_FORMAT + 1
        (directory / "manifest.json").write_text(json.dumps(manifest))
        assert load_index(tmp_path, KEY, "fp") is None

    def test_old_format_artifact_is_refused_and_rebuilt(self, tmp_path):
        # A format-1 store entry (entry-major block, per-entry list
        # layout) vouched for by a self-consistent manifest: the version
        # check must refuse it before the layout is ever interpreted, and
        # the engine must say why it rebuilt and heal the store.
        table = _smooth_table()
        key = (PARAMS, True, None, "float64")
        store = tmp_path / "store"
        directory = artifact_dir(store, key)
        directory.mkdir(parents=True)
        block = np.arange(8, dtype=np.float64).tobytes()
        layout = pickle.dumps(([(24, [(4, 2, 0)])], [None]))
        (directory / "block.f64").write_bytes(block)
        (directory / "layout.pkl").write_bytes(layout)
        (directory / "manifest.json").write_text(json.dumps({
            "format": 1,
            "fingerprint": table_fingerprint(table),
            "count": 1,
            "values_len": 8,
            "block_sha1": hashlib.sha1(block).hexdigest(),
            "layout_sha1": hashlib.sha1(layout).hexdigest(),
        }))
        assert load_index(store, key, table_fingerprint(table)) is None
        full = ShapeSearchEngine().run(table, PARAMS, UP_DOWN, k=5)
        rebuilt = ShapeSearchEngine(index=True, store=str(store)).run(
            table, PARAMS, UP_DOWN, k=5
        )
        assert rebuilt.stats.index_source == "built"
        assert rebuilt.stats.index_reason == "store-miss"
        assert _signature(rebuilt) == _signature(full)
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["format"] == ARTIFACT_FORMAT
        served = ShapeSearchEngine(index=True, store=str(store)).run(
            _smooth_table(), PARAMS, UP_DOWN, k=5  # no table-attached index yet
        )
        assert served.stats.index_source == "disk"

    def test_dense_format_2_store_is_refused_and_rebuilt(self, tmp_path):
        # What format 2 wrote for this very table: the per-trendline
        # sweep's float64 buckets as dense (members, W, W) tiles, vouched
        # for by a self-consistent format-2 manifest.  The format-4
        # reader misses it, the engine rebuilds with the storeless run's
        # bytes and heals the store in the float32 triangle layout: the
        # sweep's buckets rounded outward.
        table = _smooth_table()
        key = (PARAMS, True, None, "float64")
        store = tmp_path / "store"
        fingerprint = table_fingerprint(table)
        trendlines = generate_trendlines(table, PARAMS)
        index = ShapeIndex.build(trendlines)
        pyramids = [build_oracle.build_levels(t) for t in trendlines]
        directory = artifact_dir(store, key)
        dense_len = _write_dense_store(directory, index, fingerprint, pyramids)
        assert load_index(store, key, fingerprint) is None
        full = ShapeSearchEngine().run(table, PARAMS, UP_DOWN, k=5)
        rebuilt = ShapeSearchEngine(index=True, store=str(store)).run(
            table, PARAMS, UP_DOWN, k=5
        )
        assert rebuilt.stats.index_source == "built"
        assert rebuilt.stats.index_reason == "store-miss"
        assert _signature(rebuilt) == _signature(full)
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["format"] == ARTIFACT_FORMAT == 4
        assert manifest["values_len"] < dense_len
        healed = load_index(store, key, fingerprint)
        expected, _layout = build_oracle.pack(pyramids, [t.n_bins for t in trendlines])
        assert healed.pack()[0].tobytes() == expected.tobytes()
        assert healed.pack()[0].tobytes() == index.pack()[0].tobytes()
        assert healed.witnesses() == index.witnesses()
        del healed  # its tiles pin the mapping
        served = ShapeSearchEngine(index=True, store=str(store)).run(
            _smooth_table(), PARAMS, UP_DOWN, k=5
        )
        assert served.stats.index_source == "disk"
        assert _signature(served) == _signature(full)

    def test_float64_format_3_store_is_refused_and_rebuilt(self, tmp_path):
        # What format 3 wrote for this very table: the triangle layout
        # format 4 keeps, over the sweep's exact float64 buckets in
        # block.f64.  The format-4 reader misses it; the rebuild answers
        # as a storeless run does and heals the store in format 4 —
        # block.f32 is the format-3 block rounded outward, min tiles down
        # and max tiles up, and block.f64 is gone — which the next cold
        # engine serves from disk with the same answers.
        table = _smooth_table()
        key = (PARAMS, True, None, "float64")
        store = tmp_path / "store"
        fingerprint = table_fingerprint(table)
        trendlines = generate_trendlines(table, PARAMS)
        index = ShapeIndex.build(trendlines)
        pyramids = [build_oracle.build_levels(t) for t in trendlines]
        old_block, layout = build_oracle.pack(
            pyramids, [t.n_bins for t in trendlines], dtype=np.float64
        )
        assert layout == index.pack()[1]
        directory = artifact_dir(store, key)
        _write_old_store(
            directory, old_block.tobytes(), (layout, index.witnesses()), fingerprint, 3
        )
        assert load_index(store, key, fingerprint) is None
        full = ShapeSearchEngine().run(table, PARAMS, UP_DOWN, k=5)
        rebuilt = ShapeSearchEngine(index=True, store=str(store)).run(
            table, PARAMS, UP_DOWN, k=5
        )
        assert rebuilt.stats.index_source == "built"
        assert rebuilt.stats.index_reason == "store-miss"
        assert _signature(rebuilt) == _signature(full)
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["format"] == ARTIFACT_FORMAT == 4
        assert manifest["values_len"] == old_block.size
        assert sorted(path.name for path in directory.iterdir()) == [
            "block.f32", "layout.pkl", "manifest.json"
        ]
        block = np.fromfile(directory / "block.f32", dtype=np.float32)
        assert 2 * block.nbytes == old_block.nbytes
        expected = np.empty_like(block)
        for _n_bins, positions, shapes in layout[1]:
            for _w, W, offset in shapes:
                size = len(positions) * W * (W + 1) // 2
                lo, hi = slice(offset, offset + size), slice(offset + size, offset + 2 * size)
                expected[lo] = build_oracle.round_down(old_block[lo])
                expected[hi] = build_oracle.round_up(old_block[hi])
        assert block.tobytes() == expected.tobytes()
        served = ShapeSearchEngine(index=True, store=str(store)).run(
            _smooth_table(), PARAMS, UP_DOWN, k=5
        )
        assert served.stats.index_source == "disk"
        assert _signature(served) == _signature(full)

    def test_block_of_the_other_layout_misses(self, tmp_path):
        # A format-4 manifest over a block of the old dense length —
        # the triangle block read as if it ran that long, or the dense
        # buckets in its place, even with the digest and length
        # rewritten to vouch for them — is never served as an index.
        index = ShapeIndex.build(_random_collection(np.random.default_rng(1), 20))
        source = tmp_path / "dense"
        dense_len = _write_dense_store(artifact_dir(source, KEY), index, "fp")
        dense = (artifact_dir(source, KEY) / "block.f64").read_bytes()
        assert len(dense) == 8 * dense_len
        dense = np.frombuffer(dense, dtype=np.float64).astype(np.float32).tobytes()
        directory = self._saved(tmp_path)
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["values_len"] * 4 == index.nbytes < len(dense)

        manifest_path.write_text(json.dumps(dict(manifest, values_len=dense_len)))
        assert load_index(tmp_path, KEY, "fp") is None  # file shorter than claimed

        (directory / "block.f32").write_bytes(dense)
        manifest_path.write_text(json.dumps(manifest))
        assert load_index(tmp_path, KEY, "fp") is None  # digest of the wrong bytes

        manifest_path.write_text(json.dumps(dict(
            manifest, values_len=dense_len,
            block_sha1=hashlib.sha1(dense).hexdigest(),
        )))
        assert load_index(tmp_path, KEY, "fp") is None  # layout does not fit

    def test_block_corruption(self, tmp_path):
        directory = self._saved(tmp_path)
        path = directory / "block.f32"
        payload = bytearray(path.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        path.write_bytes(bytes(payload))
        assert load_index(tmp_path, KEY, "fp") is None

    def test_block_truncation(self, tmp_path):
        directory = self._saved(tmp_path)
        path = directory / "block.f32"
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        assert load_index(tmp_path, KEY, "fp") is None

    def test_layout_corruption(self, tmp_path):
        directory = self._saved(tmp_path)
        path = directory / "layout.pkl"
        payload = bytearray(path.read_bytes())
        payload[-1] ^= 0xFF
        path.write_bytes(bytes(payload))
        assert load_index(tmp_path, KEY, "fp") is None

    def test_unreadable_manifest(self, tmp_path):
        directory = self._saved(tmp_path)
        (directory / "manifest.json").write_text("{not json")
        assert load_index(tmp_path, KEY, "fp") is None

    def test_layout_hash_mismatch_from_swapped_pickle(self, tmp_path):
        directory = self._saved(tmp_path)
        (directory / "layout.pkl").write_bytes(
            pickle.dumps(([], []), protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert load_index(tmp_path, KEY, "fp") is None


class TestEngineDiskTier:
    """store= end to end: cold processes serve from disk, corruption rebuilds."""

    def test_cold_session_serves_from_disk(self, tmp_path):
        table = _smooth_table()
        baseline = ShapeSearchEngine().run(table, PARAMS, UP_DOWN, k=5)

        store = str(tmp_path / "artifacts")
        warm = ShapeSearchEngine(index=True, store=store)
        first = warm.run(table, PARAMS, UP_DOWN, k=5)
        assert first.stats.index_source == "built"
        assert _signature(baseline) == _signature(first)

        # A fresh engine over a freshly rebuilt table: nothing shared in
        # memory (no table-attached state, no cache, no lineage) — the
        # artifact is the only way to avoid a rebuild.
        cold_table = _smooth_table()
        assert not hasattr(cold_table, "_shape_index_state")
        cold = ShapeSearchEngine(index=True, store=store)
        served = cold.run(cold_table, PARAMS, UP_DOWN, k=5)
        assert served.stats.index_source == "disk"
        assert "source=disk" in served.plan
        assert _signature(baseline) == _signature(served)

    def test_corrupt_store_degrades_to_rebuild(self, tmp_path):
        table = _smooth_table()
        store = str(tmp_path / "artifacts")
        ShapeSearchEngine(index=True, store=store).run(
            table, PARAMS, UP_DOWN, k=5
        )
        for root, _dirs, files in os.walk(store):
            for name in files:
                if name == "block.f32":
                    path = os.path.join(root, name)
                    payload = bytearray(open(path, "rb").read())
                    payload[0] ^= 0xFF
                    open(path, "wb").write(bytes(payload))
        baseline = ShapeSearchEngine().run(_smooth_table(), PARAMS, UP_DOWN, k=5)
        cold = ShapeSearchEngine(index=True, store=store)
        rebuilt = cold.run(_smooth_table(), PARAMS, UP_DOWN, k=5)
        assert rebuilt.stats.index_source == "built"
        assert _signature(baseline) == _signature(rebuilt)

    def test_append_persists_extended_index(self, tmp_path):
        store = str(tmp_path / "artifacts")
        table = _smooth_table()
        engine = ShapeSearchEngine(index=True, store=store)
        engine.run(table, PARAMS, UP_DOWN, k=5)

        delta = [
            {"z": "g000", "x": 24.0 + i, "y": float(i)} for i in range(4)
        ]
        appended = table.append_rows(delta)
        grown = engine.run(appended, PARAMS, UP_DOWN, k=5)
        assert grown.stats.index_source == "built"  # lineage extension

        # The extended index was persisted under the appended table's
        # fingerprint: a cold session over the same appended content is
        # served from disk.
        cold_table = table.append_rows(delta)
        assert table_fingerprint(cold_table) == table_fingerprint(appended)
        cold = ShapeSearchEngine(index=True, store=store)
        served = cold.run(cold_table, PARAMS, UP_DOWN, k=5)
        assert served.stats.index_source == "disk"
        assert _signature(served) == _signature(grown)

    def test_unwritable_store_never_fails_a_query(self, tmp_path):
        table = _smooth_table()
        baseline = ShapeSearchEngine().run(table, PARAMS, UP_DOWN, k=5)
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        blocked.chmod(0o500)
        try:
            engine = ShapeSearchEngine(index=True, store=str(blocked))
            result = engine.run(table, PARAMS, UP_DOWN, k=5)
        finally:
            blocked.chmod(0o700)
        assert _signature(baseline) == _signature(result)

    def test_session_store_option_and_env_default(self, tmp_path, monkeypatch):
        store = str(tmp_path / "via-option")
        with ShapeSearch(_smooth_table(), index=True, store=store) as session:
            session.prepare(UP_DOWN, z="z", x="x", y="y").run(k=5)
        assert os.path.isdir(store)
        env_store = str(tmp_path / "via-env")
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", env_store)
        assert ShapeSearchEngine().store == env_store
        monkeypatch.delenv("REPRO_ARTIFACT_DIR")
        assert ShapeSearchEngine().store is None


class TestPruneAndBudget:
    """Artifact GC: the byte/age prune pass and its env-var budget knob."""

    def _store_with_entries(self, tmp_path, count=3):
        """A store holding `count` entries with strictly increasing mtimes."""
        store = tmp_path / "artifacts"
        rng = np.random.default_rng(7)
        names = []
        for index in range(count):
            shape_index = ShapeIndex.build(_random_collection(rng, count=12))
            key = ("params-{:02d}".format(index), True, None, "float64")
            path = save_index(store, key, shape_index, "fp{:02d}".format(index))
            names.append(os.path.basename(path))
            # Strictly order recency without sleeping: backdate earlier
            # entries' manifests (save_index writes the manifest last).
            manifest = os.path.join(path, "manifest.json")
            stamp = 1_000_000 + index * 1000
            os.utime(manifest, (stamp, stamp))
        return store, names

    def test_budget_env_parsing(self, monkeypatch):
        monkeypatch.delenv(ARTIFACT_BUDGET_ENV, raising=False)
        assert artifact_budget() is None
        monkeypatch.setenv(ARTIFACT_BUDGET_ENV, "1048576")
        assert artifact_budget() == 1048576
        monkeypatch.setenv(ARTIFACT_BUDGET_ENV, "lots")
        with pytest.raises(ExecutionError):
            artifact_budget()
        monkeypatch.setenv(ARTIFACT_BUDGET_ENV, "-1")
        with pytest.raises(ExecutionError):
            artifact_budget()

    def test_measure_only_pass_removes_nothing(self, tmp_path):
        store, names = self._store_with_entries(tmp_path)
        report = prune(store)
        assert report.examined == len(names)
        assert report.removed == 0 and report.freed_bytes == 0
        assert report.kept_bytes > 0
        assert sorted(os.listdir(store)) == sorted(names)

    def test_bytes_budget_evicts_oldest_first(self, tmp_path):
        store, names = self._store_with_entries(tmp_path)
        sizes = {
            name: sum(
                entry.stat().st_size for entry in (store / name).iterdir()
            )
            for name in names
        }
        total = sum(sizes.values())
        # Budget for exactly the newest two entries: the oldest must go.
        budget = total - sizes[names[0]]
        report = prune(store, max_bytes=budget)
        assert report.removed == 1
        assert report.removed_names == [names[0]]
        assert report.kept_bytes <= budget
        assert sorted(os.listdir(store)) == sorted(names[1:])

    def test_zero_budget_clears_the_store(self, tmp_path):
        store, names = self._store_with_entries(tmp_path)
        report = prune(store, max_bytes=0)
        assert report.removed == len(names)
        assert report.kept_bytes == 0
        assert os.listdir(store) == []

    def test_age_limit_drops_expired_entries(self, tmp_path):
        store, names = self._store_with_entries(tmp_path)
        # All manifests are backdated to ~1970+11.5 days; one hour of
        # allowed age expires every entry.
        report = prune(store, max_age_s=3600.0)
        assert report.removed == len(names)
        assert os.listdir(store) == []

    def test_foreign_directories_are_never_touched(self, tmp_path):
        store, _names = self._store_with_entries(tmp_path)
        foreign = store / "not-an-artifact"
        foreign.mkdir()
        (foreign / "precious.txt").write_text("user data")
        report = prune(store, max_bytes=0)
        assert "not-an-artifact" not in report.removed_names
        assert (foreign / "precious.txt").read_text() == "user data"

    def test_missing_root_is_a_quiet_no_op(self, tmp_path):
        report = prune(tmp_path / "never-created")
        assert report.examined == 0 and report.removed == 0


class TestIndexReason:
    """ExecutionStats.index_reason: why a build happened, stated explicitly."""

    def test_no_store_configured(self):
        stats = ShapeSearchEngine(index=True).run(
            _smooth_table(), PARAMS, UP_DOWN, k=5
        ).stats
        assert stats.index_source == "built"
        assert stats.index_reason == "no-store"

    def test_store_miss_then_disk_hit_clears_reason(self, tmp_path):
        store = str(tmp_path / "artifacts")
        cold = ShapeSearchEngine(index=True, store=store).run(
            _smooth_table(), PARAMS, UP_DOWN, k=5
        ).stats
        assert cold.index_source == "built"
        assert cold.index_reason == "store-miss"
        warm = ShapeSearchEngine(index=True, store=store).run(
            _smooth_table(), PARAMS, UP_DOWN, k=5
        ).stats
        assert warm.index_source == "disk"
        assert warm.index_reason is None

    def test_unwritable_store_reason_and_single_warning(self, tmp_path, monkeypatch):
        from repro.engine import executor as executor_module

        monkeypatch.setattr(executor_module, "_WARNED_STORES", {})
        # A regular file where the store root should be: every save
        # raises NotADirectoryError, even when the suite runs as root
        # (which a permission-bit store would not).
        blocked = tmp_path / "blocked"
        blocked.write_text("not a directory")
        engine = ShapeSearchEngine(index=True, store=str(blocked))
        with pytest.warns(RuntimeWarning, match="store-unwritable"):
            stats = engine.run(
                _smooth_table(), PARAMS, UP_DOWN, k=5
            ).stats
        assert stats.index_source == "built"
        assert stats.index_reason == "store-unwritable"
        # Second query against the same store: reason persists but the
        # warning fires once per store, not once per query.
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            again = engine.run(
                _smooth_table(), PARAMS, UP_DOWN, k=5
            ).stats
        assert again.index_reason == "store-unwritable"

    def test_memory_source_has_no_reason(self):
        engine = ShapeSearchEngine(index=True)
        table = _smooth_table()
        engine.run(table, PARAMS, UP_DOWN, k=5)
        stats = engine.run(table, PARAMS, UP_DOWN, k=5).stats
        assert stats.index_source == "memory"
        assert stats.index_reason is None
