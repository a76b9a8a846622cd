"""Unit tests for the shared-memory transport (repro.engine.shm)."""

import numpy as np
import pytest

from repro.algebra import builder as q
from repro.data.table import Table
from repro.data.visual_params import VisualParams
from repro.engine import shm
from repro.engine.cache import table_fingerprint
from repro.engine.chains import compile_query
from repro.engine.executor import ShapeSearchEngine
from repro.engine.dynamic import solve_query
from repro.engine.parallel import (
    ShardResult,
    make_range_chunks,
    merge_shard_results,
    score_shard,
    score_shard_range,
)
from repro.engine.segment_tree import segment_tree_run_solver
from repro.errors import ExecutionError

from tests.conftest import make_trendline

QUERY = compile_query(q.concat(q.up(), q.down()))


def _collection(count=10, seed=3, points=30):
    rng = np.random.default_rng(seed)
    return [
        make_trendline(rng.normal(0, 1, points).cumsum(), key="s{:02d}".format(index))
        for index in range(count)
    ]


def _signature(matches):
    return [(m.key, m.score) for m in matches]


def _groups_table(seed: int, groups: int = 4, **extra) -> Table:
    """``groups`` random-walk series of 20 points under z/x/y."""
    rng = np.random.default_rng(seed)
    zs, xs, ys = [], [], []
    for g in range(groups):
        for i, v in enumerate(rng.normal(0, 1, 20).cumsum()):
            zs.append("g{}".format(g))
            xs.append(float(i))
            ys.append(float(v))
    return Table.from_arrays(
        z=np.array(zs, dtype=object), x=np.array(xs), y=np.array(ys), **extra
    )


def _publish_table(session, table, base=None):
    """Publish ``table`` the way the streaming tail does; drop the pins."""
    handle, _query_ref, pinned = session.acquire_append(table, base, QUERY)
    session.unpin(*pinned)
    return handle


class TestCollectionRoundtrip:
    def test_attach_reconstructs_identical_trendlines(self):
        trendlines = _collection()
        handle, segment = shm.publish_trendlines(trendlines)
        try:
            rebuilt, attachment = shm.attach_collection(handle)
            assert len(rebuilt) == len(trendlines)
            for original, copy in zip(trendlines, rebuilt):
                assert copy.key == original.key
                assert copy.y_mean == original.y_mean
                assert copy.y_std == original.y_std
                assert copy.offset == original.offset
                assert np.array_equal(copy.x, original.x)
                assert np.array_equal(copy.y, original.y)
                assert np.array_equal(copy.bin_x, original.bin_x)
                assert np.array_equal(copy.norm_bin_y, original.norm_bin_y)
                assert copy.prefix.bins == original.prefix.bins
                assert np.array_equal(copy.prefix.sxy, original.prefix.sxy)
            attachment.close()
        finally:
            segment.close()
            segment.unlink()

    def test_attached_arrays_are_read_only_views(self):
        trendlines = _collection(count=3)
        handle, segment = shm.publish_trendlines(trendlines)
        try:
            rebuilt, attachment = shm.attach_collection(handle)
            for trendline in rebuilt:
                assert not trendline.norm_bin_y.flags.writeable
                assert trendline.norm_bin_y.base is not None  # a view, not a copy
                with pytest.raises((ValueError, RuntimeError)):
                    trendline.norm_bin_y[0] = 99.0
            attachment.close()
        finally:
            segment.close()
            segment.unlink()

    def test_attached_collection_scores_identically(self):
        trendlines = _collection()
        handle, segment = shm.publish_trendlines(trendlines)
        try:
            rebuilt, attachment = shm.attach_collection(handle)
            original = score_shard(trendlines, 0, QUERY, k=5)
            reattached = score_shard(rebuilt, 0, QUERY, k=5)
            assert [
                (score, position, trendline.key, result.score)
                for score, position, trendline, result in original.items
            ] == [
                (score, position, trendline.key, result.score)
                for score, position, trendline, result in reattached.items
            ]
            attachment.close()
        finally:
            segment.close()
            segment.unlink()


class TestWorkerResolution:
    def test_publisher_resolves_to_original_objects(self):
        trendlines = _collection(count=4)
        session = shm.ShmSession()
        try:
            handle = session.collection_handle(trendlines)
            assert shm.resolve_collection(handle) is trendlines
        finally:
            session.close()

    def test_score_shard_range_matches_list_path(self):
        trendlines = _collection(count=12)
        session = shm.ShmSession()
        try:
            handle = session.collection_handle(trendlines)
            query_ref = session.query_handle(QUERY)
            ranges = make_range_chunks(len(handle), workers=3, floor=4)
            shards = [
                score_shard_range(handle, range(start, end), query_ref, 4)
                for start, end in ranges
            ]
            expected = [
                score_shard(trendlines[start:end], start, QUERY, 4)
                for start, end in ranges
            ]
            # Scored by position, a shard carries no trendline back: the
            # parent holds them all and re-attaches by position.
            assert all(item[2] is None for shard in shards for item in shard.items)
            merged = merge_shard_results(shards, 4)
            merged_expected = merge_shard_results(expected, 4)
            assert [
                (score, position, trendlines[position].key)
                for score, position, _, _ in merged
            ] == [
                (score, position, trendline.key)
                for score, position, trendline, _ in merged_expected
            ]
        finally:
            session.close()

    def test_shard_ships_finished_results_only(self):
        # A worker's shard is pickled back to the parent: it carries the
        # kept QueryResults — the objects a per-candidate solve builds, to
        # the byte — and nothing of the score block they were read from.
        import pickle

        trendlines = _collection(count=40)
        session = shm.ShmSession()
        try:
            handle = session.collection_handle(trendlines)
            shard = score_shard_range(handle, range(40), session.query_handle(QUERY), 5)
        finally:
            session.close()
        reference = ShardResult(
            items=[
                (score, position, None,
                 solve_query(trendlines[position], QUERY, run_solver=segment_tree_run_solver))
                for score, position, _, _ in shard.items
            ],
            scored=shard.scored,
        )
        assert shard == reference
        assert len(pickle.dumps(shard)) == len(pickle.dumps(reference))

    def test_resolve_query_passes_compiled_through(self):
        assert shm.resolve_query(QUERY) is QUERY


class TestRangeChunks:
    def test_ranges_cover_count_in_order(self):
        ranges = make_range_chunks(10, workers=3, floor=3)
        assert ranges == [(0, 3), (3, 6), (6, 10)]

    @pytest.mark.parametrize("floor", [1, 32, 256])
    def test_default_rule_never_cuts_below_the_floor(self, floor):
        # A few shards per worker to balance uneven costs (one for a
        # one-worker pool), each a whole number of the stage's kernel
        # blocks — never below one unless it is the only shard — with
        # the sub-block remainder riding on the last.
        for workers in (1, 2, 3, 5):
            wanted = 1 if workers == 1 else 4 * workers
            for count in list(range(1, 70)) + [255, 256, 511, 512, 513, 1000, 5000]:
                ranges = make_range_chunks(count, workers, floor=floor)
                assert ranges[0][0] == 0 and ranges[-1][1] == count
                assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
                sizes = [end - start for start, end in ranges]
                assert len(sizes) == max(1, min(wanted, count // floor))
                assert len(sizes) == 1 or min(sizes) >= floor
                assert all(size % floor == 0 for size in sizes[:-1])
                blocks = [size // floor for size in sizes]
                assert max(blocks) - min(blocks) <= 1

    def test_empty_and_invalid(self):
        assert make_range_chunks(0, workers=4) == []
        # A floor below one kernel candidate is one candidate.
        assert make_range_chunks(5, workers=2, floor=0) == make_range_chunks(
            5, workers=2, floor=1
        )


class TestQueryHandle:
    def test_publish_resolve_roundtrip_across_store(self):
        session = shm.ShmSession()
        try:
            handle = session.query_handle(QUERY)
            # Simulate a worker: drop the publisher-side registry entry so
            # resolution must go through the shared segment.
            entry = shm._LOCAL.pop(handle.token)
            try:
                resolved = shm.resolve_query(handle)
            finally:
                shm._LOCAL[handle.token] = entry
                shm._WORKER_STORE.pop(handle.token, None)
            assert resolved is not QUERY
            assert len(resolved.chains) == len(QUERY.chains)
            assert resolved.chains[0].k == QUERY.chains[0].k
        finally:
            session.close()


class TestTableExport:
    def _table(self):
        return Table.from_arrays(
            z=np.array(["a", "a", "b", "b"], dtype=object),
            x=np.array([0.0, 1.0, 0.0, 1.0]),
            y=np.array([1.0, 2.0, 3.0, 4.0]),
        )

    def test_roundtrip_preserves_columns_and_fingerprint(self):
        table = self._table()
        handle, segment = shm.publish_table(table)
        try:
            rebuilt, attachment = shm.attach_table(handle)
            assert rebuilt.column_names == table.column_names
            assert np.array_equal(rebuilt.column("x"), table.column("x"))
            assert np.array_equal(rebuilt.column("y"), table.column("y"))
            assert [str(v) for v in rebuilt.column("z")] == ["a", "a", "b", "b"]
            # The pre-seeded fingerprint keys the same cache entries.
            assert table_fingerprint(rebuilt) == table_fingerprint(table)
            attachment.close()
        finally:
            segment.close()
            segment.unlink()

    def test_numeric_columns_are_zero_copy_views(self):
        table = self._table()
        handle, segment = shm.publish_table(table)
        try:
            rebuilt, attachment = shm.attach_table(handle)
            column = rebuilt.column("x")
            assert not column.flags.writeable
            assert column.base is not None
            attachment.close()
        finally:
            segment.close()
            segment.unlink()

    def test_from_shared_rejects_mismatched_lengths(self):
        with pytest.raises(Exception):
            Table.from_shared(
                {"a": np.zeros(3), "b": np.zeros(4)}, fingerprint="x"
            )

    def test_session_memoizes_by_fingerprint(self):
        table = self._table()
        session = shm.ShmSession()
        try:
            first = _publish_table(session, table)
            second = _publish_table(session, table)
            assert first is second
            assert shm.resolve_table(first) is table  # publisher short-circuit
        finally:
            session.close()


class TestHandleSize:
    def test_handle_pickles_small_regardless_of_collection_size(self):
        import pickle

        small = _collection(count=2)
        large = _collection(count=40)
        session = shm.ShmSession()
        try:
            small_handle = session.collection_handle(small)
            large_handle = session.collection_handle(large)
            # The per-trendline manifest lives inside the segment, so the
            # handle that travels with every range task stays O(1) (a few
            # bytes of integer-width jitter aside).
            assert len(pickle.dumps(large_handle)) < len(pickle.dumps(small_handle)) + 16
            assert len(pickle.dumps(large_handle)) < 256
            assert len(large_handle) == 40
        finally:
            session.close()


class TestBoundedResidency:
    def test_session_collection_memo_is_lru_bounded(self):
        session = shm.ShmSession()
        try:
            collections = [
                _collection(count=2, seed=seed)
                for seed in range(session.MAX_COLLECTIONS + 2)
            ]
            handles = [session.collection_handle(c) for c in collections]
            assert len(session._collections) == session.MAX_COLLECTIONS
            # The oldest segments were unlinked, the newest still live.
            with pytest.raises(FileNotFoundError):
                shm.attach_collection(handles[0])
            rebuilt, attachment = shm.attach_collection(handles[-1])
            assert rebuilt[0].key == collections[-1][0].key
            attachment.close()
        finally:
            session.close()

    def test_mutated_collection_is_republished(self):
        # The session memoizes by list identity; replacing an element must
        # invalidate the memo, not serve the stale segment (regression:
        # the shm path silently returned the old top-k).
        trendlines = _collection(count=6)
        session = shm.ShmSession()
        try:
            first = session.collection_handle(trendlines)
            trendlines[0] = make_trendline(
                np.linspace(0.0, 9.0, 30), key="replaced"
            )
            second = session.collection_handle(trendlines)
            assert second.token != first.token
            rebuilt, attachment = shm.attach_collection(second)
            assert rebuilt[0].key == "replaced"
            attachment.close()
        finally:
            session.close()

    def test_mutated_collection_end_to_end(self, shard_floor):
        shard_floor(2)  # several shards: the published collection is used
        trendlines = _collection(count=8)
        with ShapeSearchEngine(workers=2) as engine:
            engine.rank(trendlines, QUERY, k=3)
            trendlines.insert(
                0, make_trendline(np.linspace(0.0, 9.0, 40), key="late-add")
            )
            mutated = engine.rank(trendlines, QUERY, k=3)
            expected = ShapeSearchEngine().rank(trendlines, QUERY, k=3)
        assert _signature(mutated) == _signature(expected)

    def test_acquire_pins_both_handles_atomically(self):
        trendlines = _collection(count=3)
        session = shm.ShmSession()
        try:
            handle, query_ref = session.acquire(trendlines, QUERY)
            assert session._pins[handle.token] == 1
            assert session._pins[query_ref.token] == 1
            session.release_collection(trendlines)  # deferred: pinned
            rebuilt, attachment = shm.attach_collection(handle)
            attachment.close()
            session.unpin(handle, query_ref)
            with pytest.raises(FileNotFoundError):
                shm.attach_collection(handle)
        finally:
            session.close()

    def test_pinned_segment_release_is_deferred(self):
        trendlines = _collection(count=3)
        session = shm.ShmSession()
        try:
            handle = session.collection_handle(trendlines)
            session.pin(handle)
            session.release_collection(trendlines)
            # Still attachable: the unlink waits for the in-flight pin.
            rebuilt, attachment = shm.attach_collection(handle)
            attachment.close()
            session.unpin(handle)
            with pytest.raises(FileNotFoundError):
                shm.attach_collection(handle)
        finally:
            session.close()

    def test_worker_store_is_lru_bounded(self):
        saved = dict(shm._WORKER_STORE)
        shm._WORKER_STORE.clear()
        try:
            for index in range(shm._MAX_WORKER_ENTRIES + 3):
                shm._store_put("tok{}".format(index), shm._Attachment(index, None))
            assert len(shm._WORKER_STORE) == shm._MAX_WORKER_ENTRIES
            assert "tok0" not in shm._WORKER_STORE
        finally:
            shm._WORKER_STORE.clear()
            shm._WORKER_STORE.update(saved)

    def test_shared_cache_registers_one_listener(self):
        from repro.engine.cache import EngineCache

        cache = EngineCache()
        first = ShapeSearchEngine(cache=cache)
        second = ShapeSearchEngine(cache=cache)
        assert cache.trendlines._evict_listeners == [shm.release_evicted]
        first.close()
        second.close()


class TestSessionLifecycle:
    def test_close_unlinks_segments(self):
        trendlines = _collection(count=3)
        session = shm.ShmSession()
        handle = session.collection_handle(trendlines)
        session.close()
        with pytest.raises(FileNotFoundError):
            shm.attach_collection(handle)

    def test_close_is_idempotent(self):
        session = shm.ShmSession()
        session.collection_handle(_collection(count=2))
        session.close()
        session.close()
        assert session.closed

    def test_publish_after_close_rejected(self):
        session = shm.ShmSession()
        session.close()
        with pytest.raises(ExecutionError):
            session.collection_handle(_collection(count=2))

    def test_release_collection_unlinks_only_that_segment(self):
        first, second = _collection(count=2, seed=1), _collection(count=2, seed=2)
        session = shm.ShmSession()
        try:
            handle_first = session.collection_handle(first)
            handle_second = session.collection_handle(second)
            session.release_collection(first)
            with pytest.raises(FileNotFoundError):
                shm.attach_collection(handle_first)
            rebuilt, attachment = shm.attach_collection(handle_second)
            assert rebuilt[0].key == second[0].key
            attachment.close()
            # Releasing again (or an unknown value) is a no-op.
            session.release_collection(first)
            session.release_collection(object())
        finally:
            session.close()

    def test_context_manager_closes(self):
        with shm.ShmSession() as session:
            handle = session.collection_handle(_collection(count=2))
        assert session.closed
        with pytest.raises(FileNotFoundError):
            shm.attach_collection(handle)


class TestEngineIntegration:
    def test_engine_close_releases_session(self, shard_floor):
        shard_floor(4)  # two shards, so the collection is published
        trendlines = _collection(count=8)
        engine = ShapeSearchEngine(workers=2)
        engine.rank(trendlines, QUERY, k=3)
        session = engine._shm_box[0]
        assert session is not None and not session.closed
        engine.close()
        assert session.closed
        engine.close()  # idempotent

    def test_engine_finalizer_releases_session(self, shard_floor):
        shard_floor(4)
        trendlines = _collection(count=8)
        engine = ShapeSearchEngine(workers=2)
        engine.rank(trendlines, QUERY, k=3)
        session = engine._shm_box[0]
        engine._finalizer()  # what gc / interpreter exit runs
        assert session.closed

    def test_trendline_cache_eviction_releases_segment(self, shard_floor):
        from repro.engine.cache import EngineCache, LRUCache

        cache = EngineCache(trendlines=LRUCache(capacity=1), plans=LRUCache(capacity=8))
        rng = np.random.default_rng(0)
        tables = []
        for _ in range(2):
            zs, xs, ys = [], [], []
            for key in ("a", "b", "c"):
                series = rng.normal(0, 1, 25).cumsum()
                for index, value in enumerate(series):
                    zs.append(key)
                    xs.append(float(index))
                    ys.append(float(value))
            tables.append(
                Table.from_arrays(
                    z=np.array(zs, dtype=object), x=np.array(xs), y=np.array(ys)
                )
            )
        params = VisualParams(z="z", x="x", y="y")
        node = q.concat(q.up(), q.down())
        shard_floor(1)
        with ShapeSearchEngine(workers=2, cache=cache) as engine:
            engine.run(tables[0], params, node, k=2)
            session = engine._shm_box[0]
            published_before = len(session._collections)
            engine.run(tables[1], params, node, k=2)  # evicts tables[0] entry
            assert cache.trendlines.stats.evictions == 1
            assert len(session._collections) == published_before  # released + added

    def test_shm_disabled_still_correct(self):
        # Ten candidates are one shard at the default floor: the round is
        # scored in the caller and shared memory is never engaged.
        trendlines = _collection(count=10)
        sequential = ShapeSearchEngine().rank(trendlines, QUERY, k=4)
        with ShapeSearchEngine(workers=2) as engine:
            in_caller = engine.rank(trendlines, QUERY, k=4)
            assert engine._shm_box[0] is None  # transport never engaged
        assert _signature(sequential) == _signature(in_caller)


class TestAttachFailureLifecycle:
    """A failing attach must close its segment (REP023 regression tests).

    Before the fix, attach_collection leaked its mapping when the
    manifest-layout check raised, and attach_table / resolve_query leaked
    on corrupt payloads — every retry then pinned one more /dev/shm
    mapping for the worker's lifetime.
    """

    @staticmethod
    def _tracking_attach(monkeypatch, closed):
        real = shm._attach_segment

        def tracking(name):
            segment = real(name)
            original_close = segment.close

            def close():
                closed.append(name)
                original_close()

            segment.close = close
            return segment

        monkeypatch.setattr(shm, "_attach_segment", tracking)

    def test_attach_collection_closes_segment_on_manifest_mismatch(
        self, monkeypatch
    ):
        handle, segment = shm.publish_trendlines(_collection(count=3))
        closed = []
        try:
            self._tracking_attach(monkeypatch, closed)
            # A publisher/worker version skew: the attaching side expects
            # a different per-trendline array count than was published.
            monkeypatch.setattr(shm, "_ARRAYS_PER_TRENDLINE", 11)
            with pytest.raises(ExecutionError, match="manifest layout mismatch"):
                shm.attach_collection(handle)
            assert closed == [handle.name]
        finally:
            segment.close()
            segment.unlink()

    def test_attach_collection_closes_segment_on_corrupt_manifest(
        self, monkeypatch
    ):
        import dataclasses

        handle, segment = shm.publish_trendlines(_collection(count=3))
        closed = []
        try:
            self._tracking_attach(monkeypatch, closed)
            truncated = dataclasses.replace(handle, manifest_nbytes=3)
            with pytest.raises(Exception):
                shm.attach_collection(truncated)
            assert closed == [handle.name]
        finally:
            segment.close()
            segment.unlink()

    def test_attach_table_closes_segment_on_bad_dtype(self, monkeypatch):
        import dataclasses

        table = Table.from_arrays(x=np.arange(6.0), y=np.arange(6.0) * 2)
        handle, segment = shm.publish_table(table)
        closed = []
        try:
            self._tracking_attach(monkeypatch, closed)
            name, _, offset, nbytes = handle.columns[0]
            bad = dataclasses.replace(
                handle, columns=((name, "not-a-dtype", offset, nbytes),)
            )
            with pytest.raises(TypeError):
                shm.attach_table(bad)
            assert closed == [handle.name]
        finally:
            segment.close()
            segment.unlink()

    def test_attach_succeeds_without_closing(self, monkeypatch):
        handle, segment = shm.publish_trendlines(_collection(count=3))
        closed = []
        try:
            self._tracking_attach(monkeypatch, closed)
            rebuilt, attachment = shm.attach_collection(handle)
            assert closed == []  # success hands the open segment to the caller
            assert len(rebuilt) == 3
            attachment.close()
            assert closed == [handle.name]
        finally:
            segment.close()
            segment.unlink()

    def test_resolve_query_closes_segment_on_corrupt_payload(self, monkeypatch):
        import dataclasses

        handle, segment = shm.publish_query(QUERY)
        closed = []
        try:
            self._tracking_attach(monkeypatch, closed)
            # New token: miss the publisher-side registry so the attach
            # path actually runs; truncated nbytes corrupts the pickle.
            corrupt = dataclasses.replace(handle, token="corrupt", nbytes=3)
            with pytest.raises(Exception):
                shm.resolve_query(corrupt)
            assert closed == [handle.name]
        finally:
            segment.close()
            segment.unlink()


class TestStreamingSegments:
    """Table publishing for the streaming tail (``acquire_append``)."""

    def test_tuple_keys_roundtrip_shared_table(self):
        """Composite (tuple) group keys survive the pickled export 1-D."""
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

    def test_unrelated_columns_not_published(self, shard_floor):
        """The tail ships only the columns the query reads.

        An object column the query never touches may hold values that do
        not pickle (and generation never looks at them); publishing must
        neither copy nor serialize it.
        """
        from repro.api import ShapeSearch

        table = _groups_table(18, groups=6)
        unpicklable = np.empty(len(table), dtype=object)
        for i in range(len(table)):
            unpicklable[i] = lambda: None  # lambdas cannot pickle
        table = Table.from_shared(
            {**{name: table.column(name) for name in table.column_names},
             "meta": unpicklable}
        )
        shard_floor(1)  # the workers attach the published table
        with ShapeSearch(table) as sequential, ShapeSearch(table, workers=2) as pooled:
            expected = sequential.tail("[p=up][p=down]", z="z", x="x", y="y", k=4)
            got = pooled.tail("[p=up][p=down]", z="z", x="x", y="y", k=4)
            assert got.results.stats.shards > 1
            (published,) = pooled.engine._shm_session()._tables.values()
            assert [name for name, *_rest in published.columns] == ["z", "x", "y"]
            assert _signature(got.results) == _signature(expected.results)

    def test_subset_publish_manifest(self):
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
        session = shm.ShmSession()
        try:
            table = _groups_table(16, groups=3)
            fingerprint_handle = _publish_table(session, table)
            fingerprint = fingerprint_handle.fingerprint
            session.pin(fingerprint_handle)
            session.pin(fingerprint_handle)  # two dispatches in flight

            def evict_all_tables():
                filler = _groups_table(17, groups=2)
                for step in range(shm.ShmSession.MAX_TABLES):
                    _publish_table(session, filler)
                    filler = filler.append_rows(
                        [{"z": "f{}".format(step), "x": 0.0, "y": 1.0},
                         {"z": "f{}".format(step), "x": 1.0, "y": 2.0}]
                    )

            evict_all_tables()  # parks generation 1
            _publish_table(session, table)  # republish same fingerprint
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
        session = shm.ShmSession()
        try:
            table, base = _groups_table(14, groups=4), None
            for step in range(shm.ShmSession.MAX_TABLES + 3):
                _publish_table(session, table, base)
                table, base = table.append_rows(
                    [{"z": "x{}".format(step), "x": 0.0, "y": 1.0},
                     {"z": "x{}".format(step), "x": 1.0, "y": 2.0}]
                ), table
            assert len(session._tables) <= shm.ShmSession.MAX_TABLES
            # Every segment is a table (full export or delta) but the query's.
            assert len(session._segments) <= shm.ShmSession.MAX_TABLES + 1
        finally:
            session.close()
