"""Worker-side EXTRACT/GROUP: byte-identity with parent-side generation.

The staged pipeline's parallel Extract/Group implementation generates
trendlines *inside* the workers (fused with scoring, over the shared
table).  These tests assert the core contract: for any table — including
single-group, dropped-group and empty-after-filters edge cases — any
backend, worker count, shm setting and DP kernel, worker-side generation
produces byte-identical trendlines, scores, placements and top-k order
to the parent-side path.
"""

import numpy as np
import pytest

from repro.data.table import Table
from repro.data.visual_params import VisualParams
from repro.engine.executor import ShapeSearchEngine
from repro.engine.pipeline import (
    count_groups,
    generate_range,
    generate_trendlines,
    plan_pipeline,
)
from repro.errors import ExecutionError
from repro.parser import parse

PARAMS = VisualParams(z="z", x="x", y="y")
QUERY = parse("[p=up][p=down]")


def _random_table(seed: int, groups: int = 10) -> Table:
    """A randomized multi-group table with awkward shapes baked in.

    Every third group is a single point (dropped by EXTRACT), one group
    repeats x values (exercising duplicate-x aggregation), and one is
    constant (degenerate y).  The drops leave gaps in the group-index
    space, which is exactly what the worker-side position compaction
    must survive.
    """
    rng = np.random.default_rng(seed)
    zs, xs, ys = [], [], []
    for g in range(groups):
        key = "g{:02d}".format(g)
        if g % 3 == 2:
            length = 1  # dropped: a trendline needs two points
        else:
            length = int(rng.integers(8, 40))
        values = rng.normal(0, 1, length).cumsum()
        for i, v in enumerate(values):
            zs.append(key)
            # One group gets duplicate x values to force aggregation.
            xs.append(float(i // 2) if g == 1 else float(i))
            ys.append(float(v))
    return Table.from_arrays(
        z=np.array(zs, dtype=object), x=np.array(xs), y=np.array(ys)
    )


def _signature(matches):
    return [
        (
            m.key,
            m.score,
            tuple((p.start, p.end, p.score, p.slope) for p in m.placements),
        )
        for m in matches
    ]


def _execute(table, query, k=5, **engine_kwargs):
    with ShapeSearchEngine(**engine_kwargs) as engine:
        matches = engine.run(table, PARAMS, query, k=k)
        return matches, matches.stats


class TestWorkerGenerationProperty:
    """Parent-side vs worker-side EXTRACT/GROUP over randomized tables."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_thread_backend_matches_parent(self, seed, workers):
        table = _random_table(seed)
        expected, _ = _execute(table, QUERY)  # sequential parent oracle
        got, stats = _execute(
            table, QUERY, workers=workers, backend="thread", generation="worker"
        )
        assert stats.generation == "worker"
        assert _signature(got) == _signature(expected)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("shm", [True, False])
    def test_process_backend_matches_parent(self, seed, shm):
        table = _random_table(seed)
        expected, _ = _execute(table, QUERY)
        got, stats = _execute(
            table, QUERY, workers=2, backend="process", shm=shm, generation="worker"
        )
        # Without the shm transport workers cannot reach the table, so
        # the planner falls back to parent-side generation — results
        # must be identical either way.
        assert stats.generation == ("worker" if shm else "parent")
        assert _signature(got) == _signature(expected)

    @pytest.mark.parametrize("kernel", ["matrix", "loop"])
    def test_kernels_match(self, kernel):
        table = _random_table(3)
        query = parse("[p=up][p=down][p=up]")
        expected, _ = _execute(table, query, algorithm="dp", kernel=kernel)
        got, stats = _execute(
            table, query, algorithm="dp", kernel=kernel,
            workers=2, backend="thread", generation="worker",
        )
        assert stats.generation == "worker"
        assert _signature(got) == _signature(expected)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_counts_identical(self, workers):
        table = _random_table(4, groups=13)
        baseline, _ = _execute(
            table, QUERY, workers=2, backend="thread", generation="worker",
            chunk_size=1,
        )
        got, _ = _execute(
            table, QUERY, workers=workers, backend="thread", generation="worker"
        )
        assert _signature(got) == _signature(baseline)

    def test_generated_trendlines_byte_identical(self):
        """generate_range must reproduce generate_trendlines bit for bit."""
        table = _random_table(5)
        parent = generate_trendlines(table, PARAMS, normalize_y=True, plan=None)
        count = count_groups(table, PARAMS)
        pairs = []
        # Deliberately awkward range boundaries, including empty tails.
        for start, end in [(0, 3), (3, 4), (4, 9), (9, count), (count, count + 5)]:
            pairs.extend(
                generate_range(table, PARAMS, True, None, start, end)
            )
        assert len(pairs) == len(parent)
        for (index, worker_side), parent_side in zip(pairs, parent):
            assert worker_side.key == parent_side.key
            np.testing.assert_array_equal(worker_side.bin_x, parent_side.bin_x)
            np.testing.assert_array_equal(worker_side.norm_bin_y, parent_side.norm_bin_y)
            np.testing.assert_array_equal(
                worker_side.prefix.sxy, parent_side.prefix.sxy
            )
            assert worker_side.y_mean == parent_side.y_mean
            assert worker_side.y_std == parent_side.y_std
        # Gaps preserve order: indices strictly increase across ranges.
        indices = [index for index, _ in pairs]
        assert indices == sorted(indices)


class TestEdgeCases:
    def test_single_group_table(self):
        rng = np.random.default_rng(6)
        values = rng.normal(0, 1, 30).cumsum()
        table = Table.from_arrays(
            z=np.array(["only"] * 30, dtype=object),
            x=np.arange(30, dtype=float),
            y=values,
        )
        expected, _ = _execute(table, QUERY)
        got, stats = _execute(
            table, QUERY, workers=3, backend="thread", generation="worker"
        )
        assert stats.generation == "worker"
        assert stats.extracted == stats.candidates == 1
        assert _signature(got) == _signature(expected)

    def test_all_groups_filtered_out(self):
        table = _random_table(7)
        params = VisualParams(z="z", x="x", y="y", filters=("y > 1e9",))
        with ShapeSearchEngine(
            workers=2, backend="thread", generation="worker"
        ) as engine:
            matches = engine.run(table, params, QUERY, k=5)
            assert matches == []
            assert matches.stats.generation == "worker"
            assert matches.stats.candidates == 0
            assert matches.stats.extracted == 0

    def test_every_group_dropped_by_extract(self):
        # All groups are single points: group count is nonzero but no
        # trendline survives extraction in any worker.
        table = Table.from_arrays(
            z=np.array(["a", "b", "c"], dtype=object),
            x=np.array([0.0, 0.0, 0.0]),
            y=np.array([1.0, 2.0, 3.0]),
        )
        got, stats = _execute(
            table, QUERY, workers=2, backend="thread", generation="worker"
        )
        assert got == []
        assert stats.candidates == 0

    def test_object_keys_survive_shared_table(self):
        """Distinct object z-values with colliding str() stay distinct.

        The shared-table export pickles object columns, so the worker
        groups by the publisher's exact key objects — int ``1`` and str
        ``"1"`` must remain two trendlines with their original key types,
        exactly as parent-side generation produces them.
        """
        rng = np.random.default_rng(15)
        zs, xs, ys = [], [], []
        for key in (1, "1", None, "None"):
            values = rng.normal(0, 1, 20).cumsum()
            for i, v in enumerate(values):
                zs.append(key)
                xs.append(float(i))
                ys.append(float(v))
        table = Table.from_arrays(
            z=np.array(zs, dtype=object), x=np.array(xs), y=np.array(ys)
        )
        expected, _ = _execute(table, QUERY, k=4)
        assert len(expected) == 4  # four distinct groups parent-side
        got, stats = _execute(
            table, QUERY, k=4, workers=2, backend="process",
            shm=True, generation="worker",
        )
        assert stats.generation == "worker"
        assert _signature(got) == _signature(expected)
        assert {type(m.key) for m in got} == {type(m.key) for m in expected}

    def test_eager_discard_consistent(self):
        table = _random_table(8)
        query = parse("[x.s=0,x.e=10,p=up][p=down]")
        expected, expected_stats = _execute(table, query, k=1)
        got, stats = _execute(
            table, query, k=1, workers=2, backend="thread", generation="worker"
        )
        assert _signature(got) == _signature(expected)
        assert (
            stats.scored + stats.eager_discarded
            == stats.candidates
            == expected_stats.candidates
        )


class TestPlannerPolicy:
    def test_auto_prefers_parent_with_cache(self):
        table = _random_table(9)
        with ShapeSearchEngine(
            workers=2, backend="process", cache=True
        ) as engine:
            result = engine.run(table, PARAMS, QUERY, k=3)
            assert result.stats.generation == "parent"

    def test_auto_defers_on_cacheless_process_backend(self):
        table = _random_table(9)
        with ShapeSearchEngine(workers=2, backend="process") as engine:
            result = engine.run(table, PARAMS, QUERY, k=3)
            assert result.stats.generation == "worker"

    def test_auto_stays_parent_on_thread_backend(self):
        table = _random_table(9)
        with ShapeSearchEngine(workers=2, backend="thread") as engine:
            result = engine.run(table, PARAMS, QUERY, k=3)
            assert result.stats.generation == "parent"

    def test_pruning_falls_back_to_parent(self):
        table = _random_table(10)
        expected, _ = _execute(
            table, QUERY, enable_pruning=True, sample_size=3, sample_points=32
        )
        got, stats = _execute(
            table, QUERY, workers=2, backend="thread", generation="worker",
            enable_pruning=True, sample_size=3, sample_points=32,
        )
        assert stats.generation == "parent"
        assert [(m.key, m.score) for m in got] == [
            (m.key, m.score) for m in expected
        ]

    def test_workers_one_falls_back_to_parent(self):
        table = _random_table(10)
        got, stats = _execute(table, QUERY, workers=1, generation="worker")
        assert stats.generation == "parent"
        assert _signature(got) == _signature(_execute(table, QUERY)[0])

    def test_rank_paths_ignore_generation(self):
        table = _random_table(11)
        trendlines = generate_trendlines(table, PARAMS)
        with ShapeSearchEngine(
            workers=2, backend="thread", generation="worker"
        ) as engine:
            matches = engine.rank(trendlines, QUERY, k=3)
            assert engine.last_stats.generation == "parent"
            assert len(matches) == 3
            assert matches.stats.generation == "parent"

    def test_unknown_generation_rejected(self):
        with pytest.raises(ExecutionError):
            ShapeSearchEngine(generation="sideways")

    def test_plan_shapes(self):
        table = _random_table(11)
        engine = ShapeSearchEngine(workers=4, backend="process")
        try:
            compiled_plan = plan_pipeline(
                engine, engine._compile(QUERY), 5, table=table, params=PARAMS
            )
            names = [type(op).__name__ for op in compiled_plan.operators]
            assert names == [
                "ScanTable", "ExtractGroup", "GenerateAndScore", "MergeTopK",
            ]
            assert compiled_plan.generation == "worker"
            rank_plan = plan_pipeline(
                engine, engine._compile(QUERY), 5, trendlines=[]
            )
            assert [type(op).__name__ for op in rank_plan.operators] == [
                "PrebuiltScan", "SharedMemoryScore", "MergeTopK",
            ]
        finally:
            engine.close()

    def test_explain_plan_renders_stages(self):
        table = _random_table(11)
        engine = ShapeSearchEngine(workers=2, backend="process")
        try:
            text = engine.explain_plan(table, PARAMS, QUERY, k=7)
            assert "ScanTable[shared-memory]" in text
            assert "Extract/Group[worker]" in text
            assert "Score[worker-generate]" in text
            assert "MergeTopK" in text and "k=7" in text
        finally:
            engine.close()

    def test_explain_plan_via_session_api(self):
        from repro.api import ShapeSearch

        table = _random_table(11)
        with ShapeSearch(table) as session:
            text = session.explain_plan("up then down", z="z", x="x", y="y")
            assert "Extract/Group[parent]" in text
            assert "Score[sequential]" in text


class TestStreamingSegments:
    def test_tuple_keys_roundtrip_shared_table(self):
        """Composite (tuple) group keys survive the pickled export 1-D."""
        from repro.engine import shm

        keys = [("a", 1), ("a", 1), ("b", 2)]
        z = np.empty(len(keys), dtype=object)
        for i, key in enumerate(keys):  # np.array would split tuples 2-D
            z[i] = key
        table = Table.from_arrays(
            z=z, x=np.array([0.0, 1.0, 0.0]), y=np.array([1.0, 2.0, 3.0])
        )
        handle, segment = shm.publish_table(table)
        try:
            rebuilt, attachment = shm.attach_table(handle)
            column = rebuilt.column("z")
            assert column.shape == (3,)
            assert column.tolist() == [("a", 1), ("a", 1), ("b", 2)]
            assert [key for key, _rows in rebuilt.group_by("z")] == [
                ("a", 1), ("b", 2),
            ]
            attachment.close()
        finally:
            segment.close()
            segment.unlink()

    def test_unrelated_columns_not_published(self):
        """Worker-side generation ships only the columns the query reads.

        An object column the query never touches may hold values that do
        not pickle (and parent-side generation never looked at them);
        publishing must neither copy nor serialize it.
        """
        rng = np.random.default_rng(18)
        zs, xs, ys = [], [], []
        for g in range(6):
            for i, v in enumerate(rng.normal(0, 1, 20).cumsum()):
                zs.append("g{}".format(g))
                xs.append(float(i))
                ys.append(float(v))
        unpicklable = np.empty(len(zs), dtype=object)
        for i in range(len(zs)):
            unpicklable[i] = lambda: None  # lambdas cannot pickle
        table = Table.from_arrays(
            z=np.array(zs, dtype=object), x=np.array(xs), y=np.array(ys),
            meta=unpicklable,
        )
        expected, _ = _execute(table, QUERY)
        got, stats = _execute(
            table, QUERY, workers=2, backend="process", shm=True,
            generation="worker",
        )
        assert stats.generation == "worker"
        assert _signature(got) == _signature(expected)

    def test_subset_publish_manifest(self):
        from repro.engine import shm

        table = Table.from_arrays(
            z=np.array(["a", "a"], dtype=object),
            x=np.array([0.0, 1.0]),
            y=np.array([1.0, 2.0]),
            extra=np.array([9.0, 9.0]),
        )
        handle, segment = shm.publish_table(table, columns=("z", "x", "y"))
        try:
            assert [name for name, *_rest in handle.columns] == ["z", "x", "y"]
            assert handle.token != handle.fingerprint  # subset-keyed
            rebuilt, attachment = shm.attach_table(handle)
            assert rebuilt.column_names == ["z", "x", "y"]
            attachment.close()
        finally:
            segment.close()
            segment.unlink()

    def test_repinned_evictions_defer_every_generation(self):
        """Evict → republish → evict of one fingerprint while pinned must
        park (and eventually unlink) *both* segments, not leak the first."""
        from repro.engine import shm

        session = shm.ShmSession()
        try:
            table = _random_table(16, groups=3)
            fingerprint_handle = session.table_handle(table)
            fingerprint = fingerprint_handle.fingerprint
            session.pin(fingerprint_handle)
            session.pin(fingerprint_handle)  # two dispatches in flight

            def evict_all_tables():
                filler = _random_table(17, groups=2)
                for step in range(shm.ShmSession.MAX_TABLES):
                    session.table_handle(filler)
                    filler = filler.append_rows(
                        [{"z": "f{}".format(step), "x": 0.0, "y": 1.0},
                         {"z": "f{}".format(step), "x": 1.0, "y": 2.0}]
                    )

            evict_all_tables()  # parks generation 1
            session.table_handle(table)  # republish same fingerprint
            evict_all_tables()  # parks generation 2
            assert len(session._deferred.get(fingerprint, [])) == 2
            session.unpin(fingerprint_handle)
            assert len(session._deferred.get(fingerprint, [])) == 2  # still pinned
            session.unpin(fingerprint_handle)
            assert fingerprint not in session._deferred  # both unlinked
        finally:
            session.close()

    def test_streaming_appends_recycle_table_segments(self):
        """A fingerprint-churning append loop must not grow /dev/shm."""
        from repro.engine import shm

        session = shm.ShmSession()
        try:
            table = _random_table(14, groups=4)
            for step in range(shm.ShmSession.MAX_TABLES + 3):
                session.table_handle(table)
                table = table.append_rows(
                    [{"z": "x{}".format(step), "x": 0.0, "y": 1.0},
                     {"z": "x{}".format(step), "x": 1.0, "y": 2.0}]
                )
            assert len(session._tables) <= shm.ShmSession.MAX_TABLES
            assert len(session._segments) <= shm.ShmSession.MAX_TABLES
        finally:
            session.close()


class TestBatchAndRepeat:
    def test_execute_many_worker_mode_matches(self):
        table = _random_table(12)
        queries = [parse("[p=up][p=down]"), parse("[p=down][p=up]")]
        with ShapeSearchEngine() as sequential:
            expected = sequential.run_many(table, PARAMS, queries, k=3)
        with ShapeSearchEngine(
            workers=2, backend="thread", generation="worker"
        ) as engine:
            got = engine.run_many(table, PARAMS, queries, k=3)
        assert [_signature(m) for m in got] == [_signature(m) for m in expected]

    def test_repeat_query_hits_worker_range_cache(self):
        table = _random_table(13)
        with ShapeSearchEngine(
            workers=2, backend="thread", generation="worker"
        ) as engine:
            first = engine.run(table, PARAMS, QUERY, k=3)
            # Thread-backend generation state hangs off the table itself
            # (its lifetime, not the engine's or a module global's).
            ranges = table._generation_state
            ranges_cached = len(ranges)
            assert ranges_cached > 0
            second = engine.run(table, PARAMS, QUERY, k=3)
            assert _signature(first) == _signature(second)
            # Deterministic range boundaries: the repeat reused entries
            # instead of inserting new ones.
            assert len(ranges) == ranges_cached

    def test_generation_state_dies_with_the_table(self):
        import gc
        import weakref

        table = _random_table(13)
        with ShapeSearchEngine(
            workers=2, backend="thread", generation="worker"
        ) as engine:
            engine.run(table, PARAMS, QUERY, k=3)
            state_ref = weakref.ref(table._generation_state)
            assert state_ref() is not None
        del table
        gc.collect()  # table <-> state is a cycle (filtered may be table)
        assert state_ref() is None  # nothing else retains the caches
