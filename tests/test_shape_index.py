"""Persistent shape index: exactness, reuse, fallbacks, precision modes.

The index (:mod:`repro.engine.shape_index`) is a pure accelerator — the
IndexPrune stage may only discard candidates that provably cannot reach
the running top-k floor, so an indexed search must return byte-identical
results to an unindexed one for every backend, kernel, worker count and
transport.  These tests pin that contract, the append-extension reuse
path (extended index == fresh build, bit for bit), the visible
full-scan fallbacks, and the opt-in ``precision="float32"`` mode that
is explicitly *outside* the identity contract.
"""

import numpy as np
import pytest

from repro.algebra import builder as q
from repro.data.table import Table
from repro.data.visual_params import VisualParams
from repro.engine import pipeline
from repro.engine.executor import ShapeSearchEngine
from repro.engine.parallel import solve_many, solve_one
from repro.engine.shape_index import (
    MIN_SEED_CANDIDATES,
    ShapeIndex,
    index_supports,
    prune_candidates,
    survives_floor,
)
from repro.errors import ExecutionError

from tests.conftest import make_trendline

UP_DOWN = q.concat(q.up(), q.down())
PARAMS = VisualParams(z="z", x="x", y="y")


def _smooth_collection(count=40, bins=24, seed=0, hit_every=7):
    """Mostly smooth down-trends with a few genuine up-then-down shapes.

    Smoothness matters: the pyramid's bucket bounds are tight only when
    a trendline's local slopes agree, so this is the collection shape on
    which IndexPrune actually prunes (pure noise walks straddle zero
    slope in every bucket and keep bounds near 1).
    """
    rng = np.random.default_rng(seed)
    trendlines = []
    for index in range(count):
        if index % hit_every == 0:
            y = np.concatenate(
                [np.linspace(0, 10, bins // 2), np.linspace(10, 0, bins - bins // 2)]
            )
        else:
            y = np.linspace(10, 0, bins) + rng.normal(0, 0.05, bins)
        trendlines.append(make_trendline(y, key="tl{:03d}".format(index)))
    return trendlines


def _smooth_table(count=40, bins=24, seed=0, hit_every=7):
    rng = np.random.default_rng(seed)
    zs, xs, ys = [], [], []
    for index in range(count):
        if index % hit_every == 0:
            y = np.concatenate(
                [np.linspace(0, 10, bins // 2), np.linspace(10, 0, bins - bins // 2)]
            )
        else:
            y = np.linspace(10, 0, bins) + rng.normal(0, 0.05, bins)
        zs.extend(["g{:03d}".format(index)] * bins)
        xs.extend(range(bins))
        ys.extend(y.tolist())
    return Table.from_arrays(
        z=np.array(zs, dtype=object),
        x=np.array(xs, dtype=float),
        y=np.array(ys, dtype=float),
    )


def _signature(matches):
    """Everything observable about a ranked result, byte for byte."""
    return [
        (
            match.key,
            match.score,
            [
                (p.seg_index, p.start, p.end, p.score, p.slope)
                for p in match.placements
            ],
        )
        for match in matches
    ]


class TestIndexIdentity:
    """Indexed top-k must be byte-identical to the full scan, everywhere."""

    @pytest.mark.parametrize("kernel", ["matrix", "loop"])
    def test_sequential_identity(self, kernel):
        trendlines = _smooth_collection()
        full = ShapeSearchEngine(kernel=kernel).rank(trendlines, UP_DOWN, k=5)
        indexed_engine = ShapeSearchEngine(kernel=kernel, index=True)
        indexed = indexed_engine.rank(trendlines, UP_DOWN, k=5)
        assert _signature(full) == _signature(indexed)
        assert indexed_engine.last_stats.index_pruned > 0

    @pytest.mark.parametrize("algorithm", ["dp", "segment-tree", "greedy"])
    def test_algorithm_identity(self, algorithm):
        trendlines = _smooth_collection()
        full = ShapeSearchEngine(algorithm=algorithm).rank(trendlines, UP_DOWN, k=5)
        with ShapeSearchEngine(algorithm=algorithm, index=True) as engine:
            indexed = engine.rank(trendlines, UP_DOWN, k=5)
        assert _signature(full) == _signature(indexed)

    @pytest.mark.parametrize(
        "workers,backend,shm",
        [(2, "thread", True), (3, "thread", True), (2, "process", True),
         (2, "process", False)],
    )
    def test_parallel_identity(self, workers, backend, shm):
        trendlines = _smooth_collection()
        full = ShapeSearchEngine().rank(trendlines, UP_DOWN, k=5)
        with ShapeSearchEngine(
            workers=workers, backend=backend, shm=shm, index=True
        ) as engine:
            indexed = engine.rank(trendlines, UP_DOWN, k=5)
            assert _signature(full) == _signature(indexed)
            assert engine.last_stats.index_pruned > 0

    def test_shm_dispatched_bounds_identity(self):
        # Above INDEX_DISPATCH_MIN candidates the bound pass itself is
        # sharded over the pool against the published index; the floats
        # (and therefore the pruning decision and the ranked output)
        # must match the in-process path bit for bit.
        trendlines = _smooth_collection(count=280, hit_every=29)
        assert len(trendlines) >= pipeline.INDEX_DISPATCH_MIN
        full = ShapeSearchEngine().rank(trendlines, UP_DOWN, k=5)
        with ShapeSearchEngine(workers=2, backend="process", index=True) as engine:
            indexed = engine.rank(trendlines, UP_DOWN, k=5)
            assert _signature(full) == _signature(indexed)
            assert engine.last_stats.index_pruned > 0
            assert engine.last_stats.index_bounds == "dispatched"

    def test_dispatch_gate_option_and_env(self, monkeypatch):
        # The gate is a named engine option: an explicit argument wins,
        # the environment override is resolved at construction time.
        engine = ShapeSearchEngine(index_dispatch_min=17)
        assert engine.index_dispatch_min == 17
        monkeypatch.setenv("REPRO_INDEX_DISPATCH_MIN", "99")
        assert ShapeSearchEngine().index_dispatch_min == 99
        assert ShapeSearchEngine(index_dispatch_min=5).index_dispatch_min == 5
        monkeypatch.delenv("REPRO_INDEX_DISPATCH_MIN")
        assert ShapeSearchEngine().index_dispatch_min == pipeline.INDEX_DISPATCH_MIN
        monkeypatch.setenv("REPRO_INDEX_DISPATCH_MIN", "not-a-number")
        with pytest.raises(ExecutionError):
            ShapeSearchEngine()

    def test_inline_bounds_path_recorded(self):
        trendlines = _smooth_collection()
        with ShapeSearchEngine(index=True) as engine:
            engine.rank(trendlines, UP_DOWN, k=5)
            assert engine.last_stats.index_bounds == "inline"
            assert engine.last_stats.index_source in ("memory", "built")

    def test_execute_identity_and_stats(self):
        table = _smooth_table()
        full = ShapeSearchEngine().run(table, PARAMS, UP_DOWN, k=5)
        engine = ShapeSearchEngine(index=True)
        indexed = engine.run(table, PARAMS, UP_DOWN, k=5)
        assert _signature(full) == _signature(indexed)
        assert "IndexPrune" in indexed.plan
        assert indexed.stats.index_candidates == 40
        assert indexed.stats.index_pruned > 0
        assert indexed.candidates_pruned == indexed.stats.index_pruned

    def test_repeated_runs_reuse_table_index(self):
        table = _smooth_table()
        engine = ShapeSearchEngine(index=True)
        first = engine.run(table, PARAMS, UP_DOWN, k=5)
        second = engine.run(table, PARAMS, UP_DOWN, k=5)
        assert _signature(first) == _signature(second)
        state = table._shape_index_state
        assert len(state) == 1  # one index key, reused across runs


class TestAppendExtension:
    """append_rows keeps the index: extension == fresh build, bitwise."""

    def test_extended_equals_fresh_build(self):
        base = _smooth_collection(count=12, hit_every=5)
        index = ShapeIndex.build(base)
        extended_collection = base + _smooth_collection(
            count=4, seed=99, hit_every=3
        )
        extended = index.extended(extended_collection)
        fresh = ShapeIndex.build(extended_collection)
        assert len(extended) == len(fresh) == len(extended_collection)
        for ours, theirs in zip(extended.entries, fresh.entries):
            assert (ours is None) == (theirs is None)
            if ours is None:
                continue
            assert ours.n_bins == theirs.n_bins
            assert len(ours.levels) == len(theirs.levels)
            for (w_a, amin_a, amax_a), (w_b, amin_b, amax_b) in zip(
                ours.levels, theirs.levels
            ):
                assert w_a == w_b
                assert np.array_equal(amin_a, amin_b)
                assert np.array_equal(amax_a, amax_b)
        # Unchanged trendlines reuse the *same* entry objects (work skip).
        assert all(
            extended.entries[i] is index.entries[i]
            for i in range(len(base))
            if index.entries[i] is not None
        )

    def test_append_rows_keeps_index_and_identity(self):
        table = _smooth_table()
        engine = ShapeSearchEngine(index=True)
        engine.run(table, PARAMS, UP_DOWN, k=5)
        rng = np.random.default_rng(5)
        records = []
        for offset in range(6):
            records.append(
                {"z": "g000", "x": 24.0 + offset, "y": float(rng.normal(0, 1))}
            )
            records.append(
                {"z": "gnew", "x": float(offset), "y": float(offset)}
            )
        appended = table.append_rows(records)
        indexed = engine.run(appended, PARAMS, UP_DOWN, k=5)
        full = ShapeSearchEngine().run(appended, PARAMS, UP_DOWN, k=5)
        assert _signature(full) == _signature(indexed)
        # The appended table's index extended the base table's: every
        # group the append did not touch reuses its entry object.
        (base_index,) = table._shape_index_state.values()
        (new_index,) = appended._shape_index_state.values()
        reused = sum(
            1
            for entry in new_index.entries
            if entry is not None and any(entry is old for old in base_index.entries)
        )
        assert reused >= 38  # 40 groups, only g000 changed and gnew is new


class TestFallbacks:
    """When the index cannot prove bounds, the plan visibly full-scans."""

    def test_unbounded_unit_falls_back_to_full_scan(self):
        sketchy = q.concat(q.up(), q.sketch([(0.0, 1.0), (0.5, 0.2), (1.0, 0.8)]))
        table = _smooth_table()
        engine = ShapeSearchEngine(index=True)
        result = engine.run(table, PARAMS, sketchy, k=5)
        assert "IndexPrune" not in result.plan
        assert result.stats.index_candidates == 0
        compiled = engine.compile(sketchy)
        assert not index_supports(compiled)

    def test_small_collection_skips_pruning(self):
        trendlines = _smooth_collection(count=10)
        assert len(trendlines) <= max(5, MIN_SEED_CANDIDATES)
        full = ShapeSearchEngine().rank(trendlines, UP_DOWN, k=5)
        engine = ShapeSearchEngine(index=True)
        indexed = engine.rank(trendlines, UP_DOWN, k=5)
        assert _signature(full) == _signature(indexed)
        assert engine.last_stats.index_pruned == 0

    def test_collective_pruning_takes_precedence(self):
        table = _smooth_table()
        engine = ShapeSearchEngine(
            index=True, enable_pruning=True, algorithm="segment-tree"
        )
        result = engine.run(table, PARAMS, UP_DOWN, k=5)
        assert "IndexPrune" not in result.plan
        assert "pruning" in result.plan  # the collective driver ran instead

    def test_index_off_by_default(self):
        table = _smooth_table()
        result = ShapeSearchEngine().run(table, PARAMS, UP_DOWN, k=5)
        assert "IndexPrune" not in result.plan

    def test_evicted_table_state_rebuilds(self):
        # The per-table attachment keeps at most _MAX_TABLE_INDEXES
        # entries; once older keys are evicted a re-run simply rebuilds
        # (through the engine cache or from scratch) with identical
        # results — eviction is a work-skip loss, never a correctness one.
        table = _smooth_table()
        engine = ShapeSearchEngine(index=True)
        baseline = engine.run(table, PARAMS, UP_DOWN, k=5)
        for normalize in range(engine._MAX_TABLE_INDEXES + 1):
            # Distinct index keys: vary the visual params' bin width.
            params = VisualParams(z="z", x="x", y="y", bin_width=2.0 + normalize)
            engine.run(table, params, UP_DOWN, k=5)
        assert len(table._shape_index_state) <= engine._MAX_TABLE_INDEXES
        again = engine.run(table, PARAMS, UP_DOWN, k=5)
        assert _signature(baseline) == _signature(again)


class TestPrecisionModes:
    def test_float32_with_loop_kernel_rejected(self):
        with pytest.raises(ExecutionError, match="float32"):
            ShapeSearchEngine(precision="float32", kernel="loop")

    def test_unknown_precision_rejected(self):
        with pytest.raises(ExecutionError, match="precision"):
            ShapeSearchEngine(precision="float16")

    def test_float32_scores_close_to_float64(self):
        table = _smooth_table()
        exact = ShapeSearchEngine().run(table, PARAMS, UP_DOWN, k=5)
        approx = ShapeSearchEngine(precision="float32").run(
            table, PARAMS, UP_DOWN, k=5
        )
        assert "Cast[float32]" in approx.plan
        assert np.allclose(
            [m.score for m in exact], [m.score for m in approx], atol=1e-3
        )


class TestShapeIndexUnit:
    def test_pack_roundtrip_bounds_bitwise(self):
        trendlines = _smooth_collection(count=20)
        index = ShapeIndex.build(trendlines)
        compiled = ShapeSearchEngine().compile(UP_DOWN)
        values, layout = index.pack()
        rebuilt = ShapeIndex.from_packed(values, layout)
        assert len(rebuilt) == len(index)
        original = index.upper_bounds(compiled)
        roundtrip = rebuilt.upper_bounds(compiled)
        assert np.array_equal(original, roundtrip)

    @pytest.mark.parametrize(
        "query",
        [q.concat(q.up()), q.concat(q.down()), UP_DOWN,
         q.concat(q.flat()), q.concat(q.down(), q.up(), q.down())],
    )
    def test_upper_bound_admissible(self, query):
        # The soundness contract itself: for every candidate the bucket
        # bound must dominate the exact DP score, smooth or noisy.
        rng = np.random.default_rng(11)
        trendlines = _smooth_collection(count=15, hit_every=4) + [
            make_trendline(rng.normal(0, 1, 30).cumsum(), key="w{}".format(i))
            for i in range(15)
        ]
        engine = ShapeSearchEngine()
        compiled = engine.compile(query)
        index = ShapeIndex.build(trendlines)
        bounds = index.upper_bounds(compiled)
        for position, trendline in enumerate(trendlines):
            exact = solve_one(trendline, compiled, "dp").score
            assert bounds[position] >= exact, trendline.key

    def test_prune_candidates_seed_callbacks(self):
        # One seed path: the seed list goes to ``solve_many``; the older
        # per-trendline ``solve`` is wrapped into it, and one of the two
        # is required.
        trendlines = _smooth_collection(count=40)
        index = ShapeIndex.build(trendlines)
        compiled = ShapeSearchEngine().compile(UP_DOWN)
        seen = []

        def seeds_together(seeds):
            seen.append(len(seeds))
            return solve_many(seeds, compiled, "segment-tree")

        batched = prune_candidates(
            trendlines, index, compiled, 3, solve_many=seeds_together
        )
        looped = prune_candidates(
            trendlines, index, compiled, 3,
            lambda trendline: solve_one(trendline, compiled, "segment-tree"),
        )
        assert seen == [MIN_SEED_CANDIDATES]
        assert batched == looped and batched[1] > 0
        with pytest.raises(TypeError):
            prune_candidates(trendlines, index, compiled, 3)

    def test_survives_floor_is_the_single_seam(self):
        bounds = np.array([0.2, 0.5, 0.8])
        keep = survives_floor(bounds, 0.5)
        assert keep.tolist() == [False, True, True]


class TestTailStateBudget:
    def test_stats_shape_and_budget_eviction(self):
        from repro.api import ShapeSearch, TailSearch

        table = _smooth_table(count=8)
        engine = ShapeSearchEngine(algorithm="dp")
        previous = pipeline.tail_state_stats()["budget"]
        try:
            with ShapeSearch(table, engine=engine) as session:
                tail = session.tail(UP_DOWN, z="z", x="x", y="y", k=3)
                tail.append_rows(
                    [{"z": "g000", "x": 24.0, "y": 1.0},
                     {"z": "g000", "x": 25.0, "y": 2.0}]
                )
                stats = TailSearch.state_stats()
                assert set(stats) == {"entries", "bytes", "budget", "evictions"}
                assert stats["entries"] > 0
                assert stats["bytes"] > 0
                # Shrinking the budget to zero evicts every retained state.
                pipeline.set_tail_state_budget(0)
                drained = pipeline.tail_state_stats()
                assert drained["entries"] == 0
                assert drained["bytes"] == 0
                assert drained["evictions"] >= stats["entries"]
                # ...and the next refresh still works (cold re-solve).
                result = tail.append_rows([{"z": "g000", "x": 26.0, "y": 3.0}])
                assert len(result) > 0
        finally:
            pipeline.set_tail_state_budget(previous)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            pipeline.set_tail_state_budget(-1)
