"""Persistent shape index: exactness, reuse, fallbacks, precision modes.

The index (:mod:`repro.engine.shape_index`) is a pure accelerator — the
IndexPrune stage may only discard candidates that provably cannot reach
the running top-k floor, so an indexed search must return byte-identical
results to an unindexed one for every kernel, worker count and
transport.  These tests pin that contract, the append-extension reuse
path (extended index == fresh build, bit for bit), the visible
full-scan fallbacks, and the opt-in ``precision="float32"`` mode that
is explicitly *outside* the identity contract.
"""

import contextlib
import inspect
import os
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.algebra import builder as q
from repro.data.table import Table
from repro.data.visual_params import VisualParams
from repro.datasets.suites import SUITES, suite_trendlines
from repro.datasets.synthetic import mixed_collection
from repro.engine import parallel, pipeline, shape_index, shm
from repro.engine.artifacts import artifact_dir, load_index
from repro.engine.collection import Collection
from repro.engine.executor import ShapeSearchEngine
from repro.engine.parallel import (
    score_shard_range,
    solve_many,
    solve_one,
)
from repro.parser import parse
from repro.engine.shape_index import (
    MIN_SEED_CANDIDATES,
    BoundFrontier,
    ShapeIndex,
    TopKFloor,
    index_supports,
    prune_candidates,
    survives_floor,
)
from repro.engine.statistics import PrefixStats
from repro.engine.trendline import Trendline, cast_trendline
from repro.errors import ExecutionError

from tests.conftest import make_trendline
from tests.oracles import index_bounds as bounds_oracle
from tests.oracles import index_build as oracle
from tests.oracles import index_rounds as rounds_oracle

UP_DOWN = q.concat(q.up(), q.down())
PARAMS = VisualParams(z="z", x="x", y="y")

#: One unit of a random fuzzy chain: up/down (plain, sharp or gradual),
#: flat or a slope target, any of them possibly negated.
_FUZZY_UNIT = st.builds(
    lambda unit, negated: q.opposite(unit) if negated else unit,
    st.one_of(
        st.builds(q.up, sharp=st.booleans()),
        st.builds(q.up, gradual=st.booleans()),
        st.builds(q.down, sharp=st.booleans()),
        st.builds(q.down, gradual=st.booleans()),
        st.builds(q.flat),
        st.builds(q.slope, st.sampled_from([-60.0, -30.0, 15.0, 45.0, 75.0])),
    ),
    st.booleans(),
)


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


def _assert_same_buckets(index, rebuilt):
    assert len(index) == len(rebuilt)
    for ours, theirs in zip(index.entries, rebuilt.entries):
        assert (ours is None) == (theirs is None)
        if ours is None:
            continue
        assert ours.n_bins == theirs.n_bins
        assert len(ours.levels) == len(theirs.levels)
        for (w_a, lo_a, hi_a), (w_b, lo_b, hi_b) in zip(ours.levels, theirs.levels):
            assert w_a == w_b
            assert lo_a.tobytes() == lo_b.tobytes()
            assert hi_a.tobytes() == hi_b.tobytes()


class TestIndexIdentity:
    """Indexed top-k must be byte-identical to the full scan, everywhere."""

    @pytest.mark.parametrize("kernel", ["matrix", "loop"])
    def test_sequential_identity(self, kernel):
        trendlines = _smooth_collection()
        full = ShapeSearchEngine(kernel=kernel).rank(trendlines, UP_DOWN, k=5)
        indexed_engine = ShapeSearchEngine(kernel=kernel, index=True)
        indexed = indexed_engine.rank(trendlines, UP_DOWN, k=5)
        assert _signature(full) == _signature(indexed)
        assert indexed.stats.index_pruned > 0

    @pytest.mark.parametrize("algorithm", ["dp", "segment-tree", "greedy"])
    @given(
        units=st.lists(_FUZZY_UNIT, min_size=2, max_size=5),
        count=st.integers(20, 44),
        length=st.sampled_from([24, 40, 64, 90]),
        seed=st.integers(0, 10_000),
        k=st.sampled_from([1, 5, 20, 99]),
    )
    # Four draws the segment tree answered wrongly while the bound still
    # assumed run_min_length-wide end units (an end unit one leaf wide
    # scored above its bound, and a true top-k member was pruned).
    @example(units=[q.down(gradual=True), q.down(), q.opposite(q.down())],
             count=29, length=90, seed=8451, k=5)
    @example(units=[q.slope(-60.0), q.up(sharp=True), q.down(gradual=True)],
             count=24, length=90, seed=53, k=5)
    @example(units=[q.down(sharp=True), q.slope(45.0), q.up(sharp=True)],
             count=38, length=40, seed=4849, k=5)
    @example(units=[q.down(gradual=True), q.slope(75.0), q.slope(-30.0),
                    q.opposite(q.slope(-60.0))],
             count=44, length=40, seed=849, k=1)
    def test_algorithm_identity(self, algorithm, units, count, length, seed, k):
        # The index's whole contract, generatively: whatever the fuzzy
        # chain, the series and the algorithm, index=True answers exactly
        # like index=False — k = 99 exceeds every collection drawn.
        query = q.concat(*units)
        trendlines = [
            make_trendline(series, key=name)
            for name, series in mixed_collection(count, length, seed)
        ]
        full = ShapeSearchEngine(algorithm=algorithm).rank(trendlines, query, k=k)
        engine = ShapeSearchEngine(algorithm=algorithm, index=True)
        indexed = engine.rank(trendlines, query, k=k)
        assert _signature(full) == _signature(indexed)
        assert index_supports(engine.compile(query))
        assert indexed.stats.index_candidates == count

    @pytest.mark.parametrize(
        "workers,count",
        [
            pytest.param(2, 40, id="2"),
            pytest.param(3, 40, id="3"),
            # Two shards of 256 or more: the size at which the bound pass
            # used to be published and sharded over the pool.
            pytest.param(2, 544, id="2-544"),
        ],
    )
    def test_parallel_identity(self, workers, count):
        trendlines = _smooth_collection(count=count)
        full = ShapeSearchEngine().rank(trendlines, UP_DOWN, k=5)
        with ShapeSearchEngine(workers=workers, index=True) as engine:
            compiled = engine.compile(UP_DOWN)
            indexed = engine.rank(trendlines, compiled, k=5)
            assert _signature(full) == _signature(indexed)
            assert indexed.stats.index_pruned > 0
            # The bound pass runs in the caller: the session holds at
            # most the collection and the compiled query, never the index.
            session = engine._shm_session()
            published = {handle.token for handle in session._collections.values()}
            published |= {handle.token for handle in session._queries.values()}
            assert set(session._segments) <= published
            assert len(session._segments) <= 2

    def test_inline_bounds_path_recorded(self):
        trendlines = _smooth_collection()
        with ShapeSearchEngine(index=True) as engine:
            stats = engine.rank(trendlines, UP_DOWN, k=5).stats
            assert stats.index_source in ("memory", "built")

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


#: The two plans an indexed query can run on: ``(engine options, shard
#: floor)``.  The lowered floor cuts the small test collections' rounds
#: into several shards, so the pooled plan really crosses its transport
#: instead of taking the one-shard in-caller path.
PLANS = {
    "sequential": ({}, None),
    "process-shm": ({"workers": 2}, 5),
}


def _solve_log(monkeypatch, path):
    """Spy on the Score funnel: log every solved trendline's key to ``path``.

    Installed before the first dispatch, so forked pool workers inherit
    it; ``O_APPEND`` line writes from several processes do not interleave.
    """
    real = parallel.solve_many

    def spy(trendlines, *args, **kwargs):
        with open(path, "a") as log:
            log.write("".join("{}\n".format(t.key) for t in trendlines))
        return real(trendlines, *args, **kwargs)

    monkeypatch.setattr(parallel, "solve_many", spy)


def _assert_rounds_match_oracle(trendlines, compiled, k, result, stats, solved_keys):
    """The engine ran the reference loop: same candidates, each once.

    ``solved_keys`` is the Score funnel's log for the run.  The answer
    must be the *full scan's*; the solved set the per-candidate oracle's
    (:mod:`tests.oracles.index_rounds`), no key twice; the counters must
    say so; and every candidate left unsolved must fail
    ``survives_floor`` against the floor the answer ends at.
    """
    full = ShapeSearchEngine().rank(trendlines, compiled, k=k)
    assert _signature(result) == _signature(full)
    index = ShapeIndex.build(trendlines)
    rounds, solved, bounds, floor = rounds_oracle.best_first_topk(
        trendlines, index, compiled, k
    )
    expected = sorted(str(trendlines[p].key) for p in solved)
    assert len(set(expected)) == len(expected)  # keys identify candidates
    assert sorted(solved_keys) == expected
    assert stats.candidates == stats.scored == len(solved)
    assert stats.index_candidates == len(trendlines)
    assert stats.index_pruned == len(trendlines) - len(solved)
    assert "rounds={} ".format(len(rounds)) in result.plan
    if len(result) == k:
        assert floor == result[k - 1].score
    for position in range(len(trendlines)):
        if position not in solved:
            assert not survives_floor(bounds[position], floor)
    return rounds


class TestWorkDoneOnce:
    """An indexed query solves each candidate that can reach the top k once."""

    @pytest.mark.parametrize("plan", sorted(PLANS))
    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_table11_solved_once_with_parent_answers(
        self, suite, plan, monkeypatch, tmp_path
    ):
        # (The name predates the rounds: the answer every plan is held to
        # is the unindexed full scan's, the work the reference loop's.)
        trendlines = suite_trendlines(suite, max_visualizations=80, max_length=90)
        log = tmp_path / "solved.log"
        options, floor = PLANS[plan]
        with ShapeSearchEngine(index=True, **options) as engine:
            for text in SUITES[suite].fuzzy_queries:
                compiled = engine.compile(parse(text))
                _solve_log(monkeypatch, log)
                if floor is not None:
                    monkeypatch.setattr(parallel, "SHARD_FLOOR", floor)
                log.write_text("")
                result = engine.rank(trendlines, compiled, k=5)
                stats = result.stats
                monkeypatch.undo()
                _assert_rounds_match_oracle(
                    trendlines, compiled, 5, result, stats, log.read_text().split()
                )

    def test_default_sharding_solves_once_over_the_pool(self, monkeypatch, tmp_path):
        # The default floor: the 200 tied hits go out in rounds of 16, 32, 64
        # and 88 — the first two run in the caller, the last two are two
        # kernel blocks each, so the default rule hands each worker one.
        trendlines = _smooth_collection(count=400, hit_every=2)
        log = tmp_path / "solved.log"
        with ShapeSearchEngine(index=True, workers=2) as engine:
            compiled = engine.compile(UP_DOWN)
            _solve_log(monkeypatch, log)
            result = engine.rank(trendlines, compiled, k=5)
            stats = result.stats
            monkeypatch.undo()
            rounds = _assert_rounds_match_oracle(
                trendlines, compiled, 5, result, stats, log.read_text().split()
            )
            assert [len(block) for block in rounds] == [16, 32, 64, 88]
            assert stats.shards == 6
            assert stats.scored == 200

    def test_repeat_runs_publish_the_collection_once(self):
        # 200 tied hits: the third round (64) is the first to cross the pool.
        trendlines = _smooth_collection(count=400, hit_every=2)
        with ShapeSearchEngine(index=True, workers=2) as engine:
            compiled = engine.compile(UP_DOWN)
            engine.rank(trendlines, compiled, k=5)
            session = engine._shm_session()
            (handle,) = session._collections.values()
            assert len(handle) == len(trendlines)  # the full collection
            segments = set(session._segments)
            resident = set(os.listdir("/dev/shm"))
            for k in (1, 3, 5, 8, 10, 13, 20, 25, 30, 40):
                assert len(engine.rank(trendlines, compiled, k=k)) == k
            assert list(session._collections.values()) == [handle]
            assert set(session._segments) == segments
            created = set(os.listdir("/dev/shm")) - resident
            assert not {name for name in created if name.startswith("psm_")}

    @pytest.mark.parametrize(
        "options,published",
        [({}, 0), ({"cache": True, "precision": "float32"}, 0), ({"cache": True}, 1)],
    )
    def test_per_run_collection_is_never_published(self, options, published):
        # A cacheless engine, and a float32 cast, build a fresh list on
        # every run(): publishing it whole for the survivors IndexPrune
        # kept would be paid per query, so those travel as objects.  Only
        # the cached (resident) collection earns a segment — one.
        table = _smooth_table(count=400, hit_every=2)
        precision = options.get("precision", "float64")
        full = ShapeSearchEngine(precision=precision).run(table, PARAMS, UP_DOWN, k=5)
        with ShapeSearchEngine(
            index=True, workers=2, **options
        ) as engine:
            for _ in range(3):
                indexed = engine.run(table, PARAMS, UP_DOWN, k=5)
                assert _signature(indexed) == _signature(full)
                assert indexed.stats.index_pruned == 200
                assert indexed.stats.shards > 2  # the survivors crossed the pool
            assert len(engine._shm_session()._collections) == published

    def test_generated_collection_is_published_once(self, monkeypatch):
        # scale_scan's shape: a cached, indexed two-worker engine
        # asked many (shape, y, k) combinations over one table.  Each y
        # column is one generated Collection; its Trendline views are the
        # same objects on every run, so the session's identity witness
        # holds and the segment is published exactly once per collection.
        table = _smooth_table(count=400, hit_every=2)
        table = Table.from_arrays(
            z=table.column("z"), x=table.column("x"), y=table.column("y"),
            y2=table.column("y") * 2.0 + 1.0,
        )
        published = []
        real = shm.publish_trendlines

        def counting(trendlines, token=None):
            published.append(trendlines)
            return real(trendlines, token)

        monkeypatch.setattr(shm, "publish_trendlines", counting)
        queries = [UP_DOWN, q.concat(q.down(), q.up()), q.concat(q.up(), q.down(), q.up())]
        with ShapeSearchEngine(
            index=True, cache=True, workers=2
        ) as engine:
            for _sweep in range(2):
                for y in ("y", "y2"):
                    params = VisualParams(z="z", x="x", y=y)
                    for query in queries:
                        for k in (3, 10):
                            result = engine.run(table, params, query, k=k)
                            assert len(result) == k
            assert engine.run(table, PARAMS, UP_DOWN, k=5).stats.shards > 2
            assert len(engine._shm_session()._collections) == 2
        assert len(published) == 2
        assert all(isinstance(sent, Collection) and len(sent) == 400 for sent in published)

    def test_position_scored_shard_pickles_without_trendlines(self):
        trendlines = _smooth_collection(count=20)
        compiled = ShapeSearchEngine().compile(UP_DOWN)
        with shm.ShmSession() as session:
            handle = session.collection_handle(trendlines)
            shard = score_shard_range(handle, [1, 4, 9, 15], compiled, 3)
        assert len(shard.items) == 3
        assert all(item[2] is None for item in shard.items)
        assert b"Trendline" not in pickle.dumps(shard)


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
        _assert_same_buckets(extended, fresh)
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
        assert indexed.stats.index_pruned == 0

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

    def test_pack_is_level_major_and_round_trips(self):
        # Mixed bin counts (one unindexable): every n_bins group's level
        # is one (members, W(W+1)/2) upper-triangle pair inside the
        # block, the buckets below the diagonal are empty sentinels in
        # the dense entry matrices, and from_packed hands back the same
        # buckets.
        rng = np.random.default_rng(4)
        trendlines = [
            make_trendline(rng.normal(0, 1, bins).cumsum(), key="m{}".format(i))
            for i, bins in enumerate([24, 64, 24, 5, 64, 24, 40])
        ]
        index = ShapeIndex.build(trendlines)
        values, (count, groups) = index.pack()
        assert count == 7
        assert [positions for _n, positions, _shapes in groups] == [
            [0, 2, 5], [1, 4], [6]
        ]
        cursor = 0
        for _n_bins, positions, shapes in groups:
            for depth, (w, W, offset) in enumerate(shapes):
                assert offset == cursor
                upper, below = np.triu_indices(W), np.tril_indices(W, -1)
                for side, empty in ((1, np.inf), (2, -np.inf)):
                    tile = values[cursor:cursor + len(positions) * W * (W + 1) // 2]
                    tile = tile.reshape(len(positions), W * (W + 1) // 2)
                    assert tile.dtype == np.float32
                    for row, position in enumerate(positions):
                        level = index.entries[position].levels[depth]
                        assert level[0] == w
                        assert level[side].shape == (W, W)
                        assert level[side].dtype == np.float64
                        assert (
                            tile[row].astype(np.float64).tobytes()
                            == level[side][upper].tobytes()
                        )
                        assert (level[side][below] == empty).all()
                    cursor += tile.size
        assert cursor == len(values)
        _assert_same_buckets(index, ShapeIndex.from_packed(values, (count, groups)))

    @pytest.mark.parametrize(
        "query",
        [q.concat(q.up()), q.concat(q.down()), UP_DOWN,
         q.concat(q.flat()), q.concat(q.down(), q.up(), q.down())],
    )
    def test_upper_bound_admissible(self, query):
        # The soundness contract itself: for every candidate the bucket
        # bound must dominate the score of every algorithm the engine can
        # run under it, smooth or noisy — the segment tree's included,
        # whose end units may be one leaf wide.
        rng = np.random.default_rng(11)
        trendlines = _smooth_collection(count=15, hit_every=4) + [
            make_trendline(rng.normal(0, 1, 30).cumsum(), key="w{}".format(i))
            for i in range(15)
        ]
        engine = ShapeSearchEngine()
        compiled = engine.compile(query)
        index = ShapeIndex.build(trendlines)
        bounds = index.upper_bounds(compiled)
        for algorithm in ("dp", "segment-tree", "greedy"):
            results = solve_many(trendlines, compiled, algorithm)
            for bound, trendline, result in zip(bounds, trendlines, results):
                assert bound >= result.score, (algorithm, trendline.key)

    def test_bound_admissible_on_table11_suites(self):
        # Where the leak lived: the Table 11 suites at 64/100/128 bins,
        # their fuzzy chains, every algorithm — no score above its bound.
        engine = ShapeSearchEngine()
        for suite in sorted(SUITES):
            for bins in (64, 100, 128):
                trendlines = suite_trendlines(
                    suite, max_visualizations=24, max_length=bins
                )
                index = ShapeIndex.build(trendlines)
                for text in SUITES[suite].fuzzy_queries:
                    compiled = engine.compile(parse(text))
                    bounds = index.upper_bounds(compiled)
                    for algorithm in ("dp", "segment-tree", "greedy"):
                        results = solve_many(trendlines, compiled, algorithm)
                        leaks = [
                            (suite, bins, text, algorithm, t.key)
                            for bound, t, result in zip(bounds, trendlines, results)
                            if result.score > bound
                        ]
                        assert not leaks

    def test_edge_units_transform_one_row_and_one_column(self, monkeypatch):
        # The DP reads only row 0 of the first unit's buckets and column
        # W−1 of the last unit's: a two-unit chain over C candidates
        # transforms 2·C·W atans per level, not C·W(W+1); a middle unit
        # still transforms its whole triangle, C·W(W+1)/2 buckets, and
        # a lone unit one bucket.
        from repro.engine import scoring

        transformed = []
        real = scoring.pattern_score_from_atan

        def counting(kind, atans, theta=None):
            transformed.append(np.size(atans))
            return real(kind, atans, theta)

        monkeypatch.setattr(scoring, "pattern_score_from_atan", counting)
        count = 70  # two passes over the finest level (64 rows of 32²)
        index = ShapeIndex.build(_smooth_collection(count=count, bins=64))
        (_n_bins, _positions, shapes), = index.pack()[1][1]
        widths = [W for _w, W, _offset in shapes]
        assert widths == [32, 16, 8, 4]
        engine = ShapeSearchEngine()
        expected = {
            UP_DOWN: sum(2 * count * W for W in widths),
            q.concat(q.down(), q.up(), q.down()): sum(
                2 * count * W + count * W * (W + 1) // 2 for W in widths
            ),
            q.concat(q.up()): count * len(widths),
        }
        for query, elements in expected.items():
            transformed.clear()
            index.upper_bounds(engine.compile(query))
            assert sum(transformed) == elements, query

    def test_prune_candidates_seed_callbacks(self):
        # One frontier loop: each round's block goes to ``solve_many``;
        # the older per-trendline ``solve`` is wrapped into it, and one
        # of the two is required.
        trendlines = _smooth_collection(count=40)
        index = ShapeIndex.build(trendlines)
        compiled = ShapeSearchEngine().compile(UP_DOWN)
        seen = []

        def blocks_together(block):
            seen.append(len(block))
            return solve_many(block, compiled, "segment-tree")

        batched = prune_candidates(
            trendlines, index, compiled, 3, solve_many=blocks_together
        )
        looped = prune_candidates(
            trendlines, index, compiled, 3,
            lambda trendline: solve_one(trendline, compiled, "segment-tree"),
        )
        assert seen[0] == MIN_SEED_CANDIDATES and sum(seen) == len(batched[0])
        assert batched == looped and batched[1] > 0
        assert batched[1] == len(trendlines) - len(batched[0])
        with pytest.raises(TypeError):
            prune_candidates(trendlines, index, compiled, 3)

    def test_round_size_depends_on_k_and_round_only(self):
        assert [parallel.round_size(5, r) for r in range(5)] == [16, 32, 64, 128, 256]
        assert [parallel.round_size(20, r) for r in range(3)] == [20, 32, 64]
        assert list(inspect.signature(parallel.round_size).parameters) == ["k", "number"]

    def test_topk_floor_rises_over_finite_scores_only(self):
        floor = TopKFloor(3)
        floor.add([0.5, float("nan"), float("-inf"), 0.1])
        assert floor.value == -np.inf  # two finite scores: no floor yet
        floor.add([0.3])
        assert floor.value == 0.1
        floor.add([0.2, 0.9])
        assert floor.value == 0.3

    def test_survives_floor_is_the_single_seam(self):
        bounds = np.array([0.2, 0.5, 0.8])
        keep = survives_floor(bounds, 0.5)
        assert keep.tolist() == [False, True, True]


class TestBoundFrontier:
    """Lazy levels, ordering, and the shapes of pyramid a class can have."""

    def _mixed(self):
        # 64 bins: 4 levels; 24 bins: 2; 12 bins: a single level; 5: none.
        rng = np.random.default_rng(21)
        bins = [64, 24, 12, 5] * 12
        return [
            make_trendline(
                np.linspace(8, 0, n) + rng.normal(0, 0.05, n) if i % 5
                else np.concatenate([np.linspace(0, 8, n // 2), np.linspace(8, 0, n - n // 2)]),
                key="x{:02d}".format(i),
            )
            for i, n in enumerate(bins)
        ]

    def test_coarse_levels_up_front_finest_on_alive_rows_only(self):
        trendlines = _smooth_collection(count=60, bins=64, hit_every=2)
        index = ShapeIndex.build(trendlines)
        compiled = ShapeSearchEngine().compile(UP_DOWN)
        frontier = BoundFrontier(index, compiled)
        full = index.upper_bounds(compiled)
        assert frontier.refined == [60, 60, 60]  # every level but the finest
        assert (frontier.bounds >= full).all()
        first = frontier.next_block(16, -np.inf)
        assert first == list(range(0, 32, 2))  # 16 of the 30 tied hits
        assert frontier.refined == [60, 60, 60]  # no floor yet: nothing to prune
        results = solve_many([trendlines[p] for p in first], compiled, "segment-tree")
        floor = min(result.score for result in results)
        second = frontier.next_block(32, floor)
        # The finest level ran once, on the unsolved rows still alive:
        # the other 14 hits, tied with the floor.
        assert second == list(range(32, 60, 2))
        assert frontier.refined == [60, 60, 60, 14]
        assert frontier.bounds[second].tobytes() == full[second].tobytes()
        assert frontier.next_block(64, floor) == []
        assert frontier.refined == [60, 60, 60, 14] and frontier.rounds == 2

    def test_single_level_mixed_and_unindexed_classes(self):
        # A one-level class has no coarse pass (its rows wait at +inf,
        # like unindexed entries, and go out first); every class refines
        # on its own when the floor arrives.
        trendlines = self._mixed()
        index = ShapeIndex.build(trendlines)
        compiled = ShapeSearchEngine().compile(UP_DOWN)
        frontier = BoundFrontier(index, compiled)
        waiting = [i for i, t in enumerate(trendlines) if t.n_bins in (12, 5)]
        assert np.isposinf(frontier.bounds[waiting]).all()
        assert np.isfinite(np.delete(frontier.bounds, waiting)).all()
        assert frontier.refined == [24, 12, 12]  # 64- and 24-bin coarse levels
        first = frontier.next_block(16, -np.inf)
        assert first == waiting[:16]
        frontier.next_block(8, 0.5)
        # 64-bin finest is depth 3, 24-bin depth 1, 12-bin depth 0.
        assert frontier.refined[3] <= 12 and frontier.refined[0] > 24
        unindexed = [i for i, t in enumerate(trendlines) if t.n_bins == 5]
        assert np.isposinf(frontier.bounds[unindexed]).all()

    @pytest.mark.parametrize("algorithm", ["dp", "segment-tree", "greedy"])
    @pytest.mark.parametrize("k", [1, 4, 17, 48, 60])
    def test_mixed_classes_identity(self, algorithm, k):
        # k = 48 is the whole collection, 60 more than it holds.
        trendlines = self._mixed()
        full = ShapeSearchEngine(algorithm=algorithm).rank(trendlines, UP_DOWN, k=k)
        engine = ShapeSearchEngine(algorithm=algorithm, index=True)
        indexed = engine.rank(trendlines, UP_DOWN, k=k)
        assert _signature(full) == _signature(indexed)
        if k >= len(trendlines):
            assert indexed.stats.index_pruned == 0
            assert indexed.stats.scored == len(trendlines)

    def test_single_level_collection_prunes(self):
        trendlines = _smooth_collection(count=40, bins=12)
        full = ShapeSearchEngine().rank(trendlines, UP_DOWN, k=3)
        engine = ShapeSearchEngine(index=True)
        indexed = engine.rank(trendlines, UP_DOWN, k=3)
        assert _signature(full) == _signature(indexed)
        assert indexed.stats.index_pruned > 0
        assert "refined=[24]" in indexed.plan  # the 24 the first round left

    def test_fewer_than_k_feasible_prunes_nothing(self):
        # Every candidate is infeasible (an unsatisfiable y window scores
        # −1): the floor never clears the −1 every bound is clamped at,
        # so no level is refined and nothing is pruned.
        impossible = q.concat(
            q.up(y_start=1e6, y_end=2e6), q.down(y_start=2e6, y_end=1e6)
        )
        trendlines = _smooth_collection(count=40, bins=64)
        full = ShapeSearchEngine().rank(trendlines, impossible, k=5)
        engine = ShapeSearchEngine(index=True)
        indexed = engine.rank(trendlines, impossible, k=5)
        assert _signature(full) == _signature(indexed)
        assert {match.score for match in full} == {-1.0}
        assert indexed.stats.index_pruned == 0
        assert indexed.stats.scored == 40
        assert "refined=[40,40,40]" in indexed.plan  # the finest level never ran


#: Bin counts that matter to the build: too short for any level (< 8),
#: the shortest indexable, ``n % w != 0``, one whose super-bin count is
#: odd at every coarsening step (49/50: W = 25 → 13 → 7 → 4), an odd W
#: with wide super-bins (961: w = W = 31) and one past 2 000 bins.
LENGTHS = [3, 7, 8, 9, 24, 24, 24, 33, 49, 50, 65, 130, 961, 2001]
SHORT_LENGTHS = [n for n in LENGTHS if n < 200]
SERIES = ["walk", "walk", "constant", "two-valued", "nan"]
SHAPES = [UP_DOWN, q.concat(q.flat(), q.up()), q.concat(q.down(), q.up(), q.down())]

#: ``BLOCK_ELEMENTS`` settings: one candidate per kernel pass, seven of
#: the 24-bin class (a pass holds w * (n + 1) = 50 elements each), and
#: the shipped constant.
BLOCKS = [1, 7 * 50, shape_index.BLOCK_ELEMENTS]


def _series(kind, bins, seed):
    rng = np.random.default_rng(seed)
    if kind == "constant":
        return np.full(bins, float(seed % 5))
    if kind == "two-valued":
        return rng.integers(0, 2, bins).astype(float)
    if kind == "steps":  # flat runs of 2–6 bins
        levels = rng.integers(0, 4, bins).astype(float)
        return np.repeat(levels, rng.integers(2, 7, bins))[:bins]
    y = rng.normal(0, 1, bins).cumsum()
    if kind == "nan":
        y[int(rng.integers(0, bins))] = np.nan
    return y


def _ragged(specs, float32=False):
    trendlines = [
        make_trendline(_series(kind, bins, seed), key="r{:02d}".format(i))
        for i, (bins, kind, seed) in enumerate(specs)
    ]
    if float32:
        trendlines = [cast_trendline(t, np.float32) for t in trendlines]
    return trendlines


def _specs(lengths, max_size):
    return st.lists(
        st.tuples(st.sampled_from(lengths), st.sampled_from(SERIES), st.integers(0, 999)),
        min_size=1,
        max_size=max_size,
    )


@contextlib.contextmanager
def _block_elements(elements):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shape_index, "BLOCK_ELEMENTS", elements)
        yield


def _dense_levels(block, groups):
    """Position → ``[(w, amin, amax)]`` of a format-2 (dense-tile) block.

    Format 2 stored each group level as ``(members, W, W)`` min tiles
    then max tiles at the layout's offsets.
    """
    levels = {}
    for _n_bins, positions, shapes in groups:
        for w, W, offset in shapes:
            size = len(positions) * W * W
            lo = block[offset:offset + size].reshape(len(positions), W, W)
            hi = block[offset + size:offset + 2 * size].reshape(len(positions), W, W)
            for row, position in enumerate(positions):
                levels.setdefault(position, []).append((w, lo[row], hi[row]))
    return levels


def _assert_equals_oracle(index, trendlines):
    """Every bucket, witness and packed byte of the per-trendline sweep.

    Buckets are the sweep's float64 atan extremes rounded outward to
    float32 (``oracle.stored``), compared exactly.
    """
    pyramids = [oracle.build_levels(trendline) for trendline in trendlines]
    assert len(index) == len(trendlines)
    assert index.indexed == sum(levels is not None for levels in pyramids)
    for entry, levels, trendline in zip(
        index.entries, map(oracle.stored, pyramids), trendlines
    ):
        assert (entry is None) == (levels is None)
        if entry is None:
            continue
        assert entry.n_bins == trendline.n_bins
        assert entry.witness == oracle.witness(trendline)
        assert [w for w, _lo, _hi in entry.levels] == [w for w, _lo, _hi in levels]
        for (_w, lo_a, hi_a), (_w, lo_b, hi_b) in zip(entry.levels, levels):
            assert lo_a.tobytes() == lo_b.tobytes()
            assert hi_a.tobytes() == hi_b.tobytes()
    values, layout = oracle.pack(pyramids, [t.n_bins for t in trendlines])
    got_values, got_layout = index.pack()
    # Pickled, not just equal: the artifact digest covers these bytes.
    assert pickle.dumps(got_layout) == pickle.dumps(layout)
    assert got_values.tobytes() == values.tobytes()
    assert index.nbytes == values.nbytes
    reference = ShapeIndex.from_packed(values, layout)
    engine = ShapeSearchEngine()
    for shape in SHAPES:
        compiled = engine.compile(shape)
        assert (
            index.upper_bounds(compiled).tobytes()
            == reference.upper_bounds(compiled).tobytes()
        )


class TestOutwardRounding:
    """The block stores each bucket's float64 atan interval rounded outward."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(SHORT_LENGTHS),
                st.sampled_from(["walk", "constant", "steps", "nan"]),
                st.integers(0, 999),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @example([(24, "constant", 3), (49, "nan", 1), (65, "walk", 2), (33, "steps", 4)])
    def test_minima_round_down_and_maxima_round_up(self, specs):
        # Random walks, constant and stepped runs (exact zero slopes) and
        # NaN series (every bucket an empty-bucket sentinel): a stored
        # minimum is the largest float32 <= the sweep's float64 value, a
        # maximum the smallest float32 >= it, and +-inf stay +-inf.
        trendlines = _ragged(specs)
        index = ShapeIndex.build(trendlines)
        for entry, trendline in zip(index.entries, trendlines):
            levels = oracle.build_levels(trendline)
            assert (entry is None) == (levels is None)
            if entry is None:
                continue
            for (_w, lo, hi), (_w, amin, amax) in zip(entry.levels, levels):
                for got, exact, inward, rounding in (
                    (lo, amin, np.inf, oracle.round_down),
                    (hi, amax, -np.inf, oracle.round_up),
                ):
                    narrow = got.astype(np.float32)
                    assert narrow.astype(np.float64).tobytes() == got.tobytes()
                    assert narrow.tobytes() == rounding(exact).tobytes()
                    finite = np.isfinite(exact)
                    assert (got[~finite] == exact[~finite]).all()
                    step = np.nextafter(narrow[finite], np.float32(inward))
                    if inward > 0:
                        assert (got[finite] <= exact[finite]).all()
                        assert (step > exact[finite]).all()
                    else:
                        assert (got[finite] >= exact[finite]).all()
                        assert (step < exact[finite]).all()


class TestTiledBuild:
    """The class-batched build is the per-trendline sweep, bit for bit."""

    @given(
        _specs(SHORT_LENGTHS, 24) | _specs(LENGTHS, 6),
        st.booleans(),
        st.sampled_from(BLOCKS),
    )
    @example([(n, "walk", n) for n in LENGTHS], False, BLOCKS[-1])
    @example([(n, "walk", n) for n in LENGTHS if n < 1000], True, 1)
    @example([(24, kind, 3) for kind in SERIES] * 3, False, BLOCKS[1])
    @example([(49, "nan", 1), (961, "two-valued", 2), (50, "constant", 3)], True, BLOCKS[1])
    def test_build_equals_oracle(self, specs, float32, block):
        trendlines = _ragged(specs, float32)
        with _block_elements(block):
            index = ShapeIndex.build(trendlines)
        _assert_equals_oracle(index, trendlines)

    def test_collection_block_feeds_the_same_rows(self):
        # A generated Collection is read through its wide prefix block;
        # slicing it to a list takes the per-trendline path.
        collection = pipeline.generate_trendlines(_smooth_table(count=12), PARAMS)
        assert isinstance(collection, Collection)
        index = ShapeIndex.build(collection)
        _assert_equals_oracle(index, collection)
        assert index.pack()[0].tobytes() == ShapeIndex.build(collection[:]).pack()[0].tobytes()

    @given(
        _specs(SHORT_LENGTHS, 12),
        st.lists(st.sampled_from(["keep", "keep", "change", "drop"]), min_size=12, max_size=12),
        _specs(SHORT_LENGTHS, 4),
        st.sampled_from(BLOCKS),
    )
    def test_extended_equals_build_and_reuses_by_identity(self, specs, fates, added, block):
        base = _ragged(specs)
        index = ShapeIndex.build(base)
        grown, kept = [], []
        for position, (trendline, fate) in enumerate(zip(base, fates)):
            if fate == "change":
                bins, kind, seed = specs[position]
                trendline = make_trendline(
                    _series(kind, bins, seed) + np.linspace(0.0, 1.0, bins),
                    key=trendline.key,
                )
            elif fate == "keep":
                kept.append((position, len(grown)))
            if fate != "drop":
                grown.append(trendline)
        grown += [
            make_trendline(_series(kind, bins, seed), key="new{}".format(i))
            for i, (bins, kind, seed) in enumerate(added)
        ]
        with _block_elements(block):
            extended = index.extended(grown)
        _assert_equals_oracle(extended, grown)
        assert extended.witnesses() == ShapeIndex.build(grown).witnesses()
        for old, new in kept:
            assert extended.entries[new] is index.entries[old]

    def test_parent_commit_store_misses_and_rebuilds_identically(self):
        # tests/fixtures/index_store: an artifact written by save_index
        # at the commit before the tiled build (format 2: dense (W, W)
        # tiles), beside the prefix blocks it was built from.  The
        # format-4 reader refuses it, and a rebuild holds every one of
        # its float64 buckets rounded outward to float32 — the empty
        # ones below the diagonal included.
        root = Path(__file__).parent / "fixtures" / "index_store"
        inputs = np.load(root / "inputs.npz")
        if np.arctan(inputs["atan_probe"]).tobytes() != inputs["atan_result"].tobytes():
            pytest.skip("np.arctan rounds differently here than where the fixture was written")
        trendlines = []
        for position, key in enumerate(inputs["keys"].tolist()):
            stacked = inputs["prefix{:02d}".format(position)]
            bins = np.zeros(stacked.shape[1] - 1)
            trendlines.append(
                Trendline(
                    key=key, x=bins, y=bins, bin_x=bins, bin_y=bins, norm_bin_y=bins,
                    prefix=PrefixStats.from_cumulative(*stacked, stacked=stacked),
                    y_mean=0.0, y_std=1.0,
                )
            )
        key = ("fixture", "parent-9663064")
        assert load_index(root, key, "fixture-fingerprint") is None
        directory = artifact_dir(root, key)
        with open(directory / "layout.pkl", "rb") as handle:
            (count, groups), witnesses = pickle.load(handle)
        dense = _dense_levels(np.fromfile(directory / "block.f64"), groups)
        assert count == len(trendlines) == len(dense) + 1
        fresh = ShapeIndex.build(trendlines)
        assert fresh.witnesses() == witnesses
        assert [
            (n_bins, positions, [(w, W) for w, W, _offset in shapes])
            for n_bins, positions, shapes in fresh.pack()[1][1]
        ] == [
            (n_bins, positions, [(w, W) for w, W, _offset in shapes])
            for n_bins, positions, shapes in groups
        ]
        for position, entry in enumerate(fresh.entries):
            assert (entry is None) == (position not in dense)
            if entry is None:
                continue
            assert len(entry.levels) == len(dense[position])
            for (w_a, lo_a, hi_a), (w_b, lo_b, hi_b) in zip(
                entry.levels, oracle.stored(dense[position])
            ):
                assert w_a == w_b
                assert lo_a.tobytes() == lo_b.tobytes()
                assert hi_a.tobytes() == hi_b.tobytes()
        engine = ShapeSearchEngine()
        for shape in SHAPES:
            compiled = engine.compile(shape)
            assert (
                fresh.upper_bounds(compiled).tobytes()
                == bounds_oracle.upper_bounds(fresh, compiled).tobytes()
            )


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
