"""Unit tests for the parallel batch execution layer."""

import numpy as np
import pytest

from repro.algebra import builder as q
from repro.data.table import Table
from repro.data.visual_params import VisualParams
from repro.engine.chains import compile_query
from repro.engine.executor import ShapeSearchEngine
from repro.engine.parallel import (
    WorkerPool,
    default_workers,
    dispatch_score_ranges,
    dispatch_score_shards,
    make_range_chunks,
    merge_shard_results,
    score_shard,
)
from repro.errors import ExecutionError

from tests.conftest import make_trendline

QUERY = compile_query(q.concat(q.up(), q.down()))


def _collection(count=12, seed=5, points=30):
    rng = np.random.default_rng(seed)
    return [
        make_trendline(rng.normal(0, 1, points).cumsum(), key="p{:02d}".format(index))
        for index in range(count)
    ]


class TestChunking:
    def test_chunks_cover_collection_in_order(self):
        ranges = make_range_chunks(10, workers=3, floor=3)
        assert [start for start, _ in ranges] == [0, 3, 6]
        assert [i for start, end in ranges for i in range(start, end)] == list(range(10))

    def test_default_chunk_size_scales_with_workers(self):
        ranges = make_range_chunks(100, workers=4)
        assert 1 < len(ranges) <= 100
        assert sum(end - start for start, end in ranges) == 100

    def test_empty_collection(self):
        assert make_range_chunks(0, workers=4) == []


class TestShardScoring:
    def test_shard_keeps_local_top_k(self):
        trendlines = _collection(10)
        shard = score_shard(trendlines, 0, QUERY, k=3)
        assert len(shard.items) == 3
        assert shard.scored == 10

    def test_global_positions_offset(self):
        trendlines = _collection(4)
        shard = score_shard(trendlines, base_position=100, query=QUERY, k=10)
        positions = sorted(position for _, position, _, _ in shard.items)
        assert positions == [100, 101, 102, 103]

    def test_merge_equals_sequential_selection(self):
        trendlines = _collection(20)
        sequential = ShapeSearchEngine().rank(trendlines, QUERY, k=5)
        shards = [
            score_shard(trendlines[start:end], start, QUERY, k=5)
            for start, end in make_range_chunks(20, workers=4, floor=3)
        ]
        merged = merge_shard_results(shards, k=5)
        merged_sorted = sorted(merged, key=lambda item: (-item[0], str(item[2].key)))
        assert [(m.key, m.score) for m in sequential] == [
            (tl.key, score) for score, _, tl, _ in merged_sorted
        ]

    def test_eager_discard_counted_in_shards(self, shard_floor):
        # k=1 fills each shard-local heap immediately, so the floor-aware
        # eager check can skip the contradicted falling candidates.
        pinned = compile_query(q.concat(q.up(x_start=0, x_end=20), q.down()))
        peak = np.concatenate([np.linspace(0, 9, 21), np.linspace(9, 0, 9)])
        collection = []
        for shard_index in range(2):
            # Each shard leads with a genuine up-then-down match, so the
            # shard floor is high and the contradicted falling candidates
            # (pinned 'up' scores negative) are provably hopeless.
            collection.append(make_trendline(peak, key="peak{}".format(shard_index)))
            collection.extend(
                make_trendline(np.linspace(9, 0, 30), key="fall{}-{}".format(shard_index, i))
                for i in range(3)
            )
        shard_floor(4)
        with ShapeSearchEngine(workers=2) as engine:
            _, stats = engine.rank_with_stats(collection, pinned, k=1)
        assert stats.eager_discarded >= 2
        assert stats.scored + stats.eager_discarded == 8
        assert stats.shards == 2


class TestWorkerPool:
    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ExecutionError):
            WorkerPool(workers=0)

    def test_default_workers_positive(self):
        assert default_workers() >= 1
        assert WorkerPool().workers == default_workers()

    def test_single_worker_runs_inline(self):
        pool = WorkerPool(workers=1)
        assert pool.map(lambda value: value * 2, [1, 2, 3]) == [2, 4, 6]
        assert pool._pool is None  # never materialized a pool

    def test_context_manager_shuts_down(self):
        with WorkerPool(workers=2) as pool:
            assert pool.map(len, [[1], [1, 2]]) == [1, 2]
            assert pool._pool is not None
        assert pool._pool is None

    def test_shutdown_is_idempotent(self):
        pool = WorkerPool(workers=2)
        pool.map(len, [[1]])
        pool.shutdown()
        pool.shutdown()
        assert pool._pool is None

    def test_finalizer_releases_forgotten_pool(self):
        pool = WorkerPool(workers=2)
        pool.map(len, [[1]])
        executor = pool._pool
        finalizer = pool._finalizer
        assert finalizer.alive
        finalizer()  # what gc / interpreter exit runs
        assert executor._shutdown_thread


class TestProcessBackend:
    def test_process_results_match_sequential(self):
        trendlines = _collection(10)
        sequential = ShapeSearchEngine().rank(trendlines, QUERY, k=4)
        with ShapeSearchEngine(workers=2) as engine:
            parallel = engine.rank(trendlines, QUERY, k=4)
        assert [(m.key, m.score) for m in sequential] == [
            (m.key, m.score) for m in parallel
        ]

    def test_shm_and_pickling_transports_agree(self):
        # The pool's two transports over the same shards: position ranges
        # into the published collection, and pickled trendlines (the
        # object path of rounds that publish nothing).
        from repro.engine.shm import ShmSession

        trendlines = _collection(12)
        ranges = make_range_chunks(12, workers=2, floor=3)
        with WorkerPool(workers=2) as pool, ShmSession() as session:
            handle, query_ref = session.acquire(trendlines, QUERY)
            via_shm = dispatch_score_ranges(handle, query_ref, 5, pool, ranges)
            via_pickle = dispatch_score_shards(trendlines, QUERY, 5, pool, ranges)
        signatures = [
            [(score, position, tl.key) for score, position, tl, _ in merge_shard_results(shards, 5)]
            for shards in (via_shm, via_pickle)
        ]
        sequential = ShapeSearchEngine().rank(trendlines, QUERY, k=5)
        assert signatures[0] == signatures[1]
        assert [(m.key, m.score) for m in sequential] == [
            (key, score) for score, _, key in signatures[0]
        ]

    def test_shm_transport_aggregates_stats(self, shard_floor):
        shard_floor(3)
        trendlines = _collection(12)
        with ShapeSearchEngine(workers=2) as engine:
            _, stats = engine.rank_with_stats(trendlines, QUERY, k=4)
        assert stats.shards == 4
        assert stats.scored + stats.eager_discarded == 12

    def test_pool_starts_at_the_first_parallel_stage(self):
        # Four candidates are one shard, scored in the caller — but the
        # pool the plan asked for is up, so no later query pays the fork.
        with ShapeSearchEngine(workers=2) as engine:
            _, stats = engine.rank_with_stats(_collection(4), QUERY, k=2)
            assert stats.shards == 1
            (pool,) = engine._pools.values()
            assert len(pool._pool._processes) == 2

    def test_shm_process_pool_uses_worker_init(self):
        with ShapeSearchEngine(workers=2) as engine:
            pool = engine._resolve_pool(None)
            from repro.engine.shm import worker_init

            assert pool.initializer is worker_init


class TestExecuteMany:
    def _table(self):
        rng = np.random.default_rng(11)
        zs, xs, ys = [], [], []
        for key in ("a", "b", "c", "d", "e"):
            series = rng.normal(0, 1, 30).cumsum()
            for index, value in enumerate(series):
                zs.append(key)
                xs.append(float(index))
                ys.append(float(value))
        return Table.from_arrays(z=np.array(zs, dtype=object), x=np.array(xs), y=np.array(ys))

    def test_batch_matches_individual_searches(self):
        table = self._table()
        params = VisualParams(z="z", x="x", y="y")
        queries = [q.concat(q.up(), q.down()), q.concat(q.down(), q.up())]
        engine = ShapeSearchEngine()
        batch = engine.run_many(table, params, queries, k=3)
        individual = [engine.run(table, params, query, k=3) for query in queries]
        assert [
            [(m.key, m.score) for m in result] for result in batch
        ] == [[(m.key, m.score) for m in result] for result in individual]

    def test_batch_amortizes_extraction(self, monkeypatch):
        import repro.engine.executor as executor_module

        calls = []
        real = executor_module.generate_trendlines

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(executor_module, "generate_trendlines", counting)
        table = self._table()
        params = VisualParams(z="z", x="x", y="y")
        queries = [
            q.concat(q.up(), q.down()),
            q.concat(q.down(), q.up()),
            q.concat(q.up(), q.down(), q.up()),
        ]
        ShapeSearchEngine().run_many(table, params, queries, k=2)
        # Three fuzzy queries share one EXTRACT/GROUP pass.
        assert len(calls) == 1

    def test_batch_separates_y_constrained_queries(self, monkeypatch):
        import repro.engine.executor as executor_module

        calls = []
        real = executor_module.generate_trendlines

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(executor_module, "generate_trendlines", counting)
        table = self._table()
        params = VisualParams(z="z", x="x", y="y")
        queries = [
            q.concat(q.up(), q.down()),  # normalized-y generation
            q.segment(pattern=None, y_start=0.0, y_end=5.0),  # raw-y generation
        ]
        ShapeSearchEngine().run_many(table, params, queries, k=2)
        assert len(calls) == 2

    def test_batch_stats_report_reuse(self):
        table = self._table()
        params = VisualParams(z="z", x="x", y="y")
        queries = [q.concat(q.up(), q.down()), q.concat(q.down(), q.up())]
        _, stats_list = ShapeSearchEngine().execute_many_with_stats(
            table, params, queries, k=2
        )
        assert not stats_list[0].trendline_cache_hit
        assert stats_list[1].trendline_cache_hit  # reused the batch generation
        assert all(s.extracted == s.candidates for s in stats_list)


class TestExtractedHint:
    def test_zero_hint_preserved(self):
        engine = ShapeSearchEngine()
        trendlines = _collection(4)
        _, stats = engine.rank_with_stats(trendlines, QUERY, k=2, extracted_hint=0)
        assert stats.extracted == 0
        assert stats.candidates == 4


class TestUdpPlans:
    """A UDP lives in this process's registry: its queries score in the caller."""

    @staticmethod
    def _table(groups=80, points=40):
        rng = np.random.default_rng(21)
        return Table.from_arrays(
            z=np.repeat(np.array(["g{:02d}".format(g) for g in range(groups)], dtype=object), points),
            x=np.tile(np.arange(points, dtype=float), groups),
            y=rng.normal(0, 1, (groups, points)).cumsum(axis=1).ravel(),
        )

    @pytest.mark.parametrize(
        "query", ["[p=udp:late]", "[p=up][p=[p=udp:late][p=down]]"]
    )
    def test_udp_registered_after_the_pool_started(self, query):
        from repro import ShapeSearch, temporary_udp

        table = self._table()
        with ShapeSearch(table, workers=2) as session:
            session.prepare("[p=up]", z="z", x="x", y="y").run(k=3)  # 80: two shards
            pools = dict(session.engine._pools)
            assert [pool._pool is not None for pool in pools.values()] == [True]
            with temporary_udp("late", lambda values, slope: float(np.tanh(slope))):
                prepared = session.prepare(query, z="z", x="x", y="y")
                plan = prepared.explain_plan(k=3)
                got = prepared.run(k=3)
                with ShapeSearch(table) as sequential:
                    expected = sequential.prepare(query, z="z", x="x", y="y").run(k=3)
            assert "Score[sequential] workers=1 reason=udp" in plan.splitlines()[-2]
            assert "reason" not in expected.plan  # workers=1 overrides nothing
            assert got.plan == plan
            assert [(m.key, m.score) for m in got] == [(m.key, m.score) for m in expected]
            assert session.engine._pools == pools  # no pool for the UDP query
