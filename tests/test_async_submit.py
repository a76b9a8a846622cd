"""The non-blocking submit API: SearchFuture, progress, cooperative cancel.

The acceptance contract of the redesign: ``prepared.submit()`` returns
before scoring completes, in the caller *and* on the process pool, a
cancel on a multi-shard search leaves the pool reusable with a
subsequent run byte-identical to an uncancelled one, and per-shard
progress flows from the Score stage to the caller's callback.

Timing strategy: a blocking UDP (gated on a ``threading.Event``) proves
non-blocking submission deterministically — a UDP query always scores
in the caller's driver thread; the process pool gets slow shards from a
sleeping Score funnel (installed before the pool forks, so the workers
inherit it) where only *relative* durations matter.
"""

import threading
import time

import numpy as np
import pytest

from repro import (
    ResultSet,
    SearchCancelled,
    SearchFuture,
    ShapeSearch,
    temporary_udp,
)
from repro.data.table import Table
from repro.engine.control import ExecutionControl


def _table(groups=12, length=25, seed=1):
    rng = np.random.default_rng(seed)
    zs, xs, ys = [], [], []
    for g in range(groups):
        values = rng.normal(0, 1, length).cumsum()
        for i, v in enumerate(values):
            zs.append("g{:02d}".format(g))
            xs.append(float(i))
            ys.append(float(v))
    return Table.from_arrays(
        z=np.array(zs, dtype=object), x=np.array(xs), y=np.array(ys)
    )


def _sig(matches):
    return [(m.key, m.score) for m in matches]


def _sleep_udp(values, slope):
    time.sleep(0.02)
    return 0.5


@pytest.fixture
def slow_shards(monkeypatch, shard_floor):
    """One group per shard, each shard's Score block 20 ms slower.

    Patched before the pool exists, so the forked workers run it too.
    """
    from repro.engine import parallel

    real = parallel.solve_many

    def slow(*args, **kwargs):
        time.sleep(0.02)
        return real(*args, **kwargs)

    monkeypatch.setattr(parallel, "solve_many", slow)
    shard_floor(1)


class TestSubmitBasics:
    def test_submit_resolves_to_run_result(self):
        with ShapeSearch(_table()) as session:
            prepared = session.prepare("[p=up][p=down]", z="z", x="x", y="y")
            future = prepared.submit(k=3)
            assert isinstance(future, SearchFuture)
            results = future.result(timeout=60)
            assert isinstance(results, ResultSet)
            assert future.done() and not future.cancelled()
            reference = prepared.run(k=3)
            assert _sig(results) == _sig(reference)
            assert results.plan == reference.plan

    def test_submit_returns_before_scoring_completes_in_caller(self):
        gate = threading.Event()
        started = threading.Event()

        def blocking(values, slope):
            started.set()
            assert gate.wait(timeout=60)
            return 0.5

        with ShapeSearch(_table(groups=4), workers=2) as session:
            with temporary_udp("gate", blocking):
                prepared = session.prepare("[p=udp:gate]", z="z", x="x", y="y")
                future = prepared.submit(k=2)
                # The driver is provably mid-scoring (parked on the gate)
                # while the caller already holds the future.
                assert started.wait(timeout=60)
                assert not future.done()
                gate.set()
                results = future.result(timeout=60)
        assert len(results) > 0

    def test_submit_returns_before_scoring_completes_process_backend(self, slow_shards):
        with ShapeSearch(_table(groups=8), workers=2) as session:
            prepared = session.prepare("[p=up][p=down]", z="z", x="x", y="y")
            submitted_at = time.perf_counter()
            future = prepared.submit(k=2)
            submit_cost = time.perf_counter() - submitted_at
            done_immediately = future.done()
            results = future.result(timeout=120)
            total = time.perf_counter() - submitted_at
            # Submission is instant relative to the execution it started.
            assert submit_cost < total / 2
            assert not done_immediately
            assert len(results) > 0

    def test_result_timeout_raises_and_keeps_running(self):
        gate = threading.Event()

        def blocking(values, slope):
            assert gate.wait(timeout=60)
            return 0.5

        with ShapeSearch(_table(groups=3)) as session:
            with temporary_udp("gate2", blocking):
                future = session.prepare(
                    "[p=udp:gate2]", z="z", x="x", y="y"
                ).submit(k=1)
                with pytest.raises(TimeoutError):
                    future.result(timeout=0.05)
                assert not future.done()
                gate.set()
                assert len(future.result(timeout=60)) > 0

    def test_progress_callback_fed_per_shard(self, shard_floor):
        events = []
        shard_floor(1)
        with ShapeSearch(_table(groups=10), workers=3) as session:  # ten shards
            prepared = session.prepare("[p=up]", z="z", x="x", y="y")
            future = prepared.submit(k=3, progress=lambda c, t: events.append((c, t)))
            future.result(timeout=60)
        assert events[0] == (0, 10)  # Score stage announcing its shard count
        assert events[-1] == (10, 10)
        completed = [c for c, _t in events]
        assert completed == sorted(completed)
        assert future.progress == (10, 10)

    def test_raising_progress_callback_does_not_poison_search(self, shard_floor):
        def bad_progress(completed, total):
            raise RuntimeError("observer bug")

        shard_floor(1)
        with ShapeSearch(_table(groups=6), workers=2) as session:
            prepared = session.prepare("[p=up]", z="z", x="x", y="y")
            future = prepared.submit(k=3, progress=bad_progress)
            results = future.result(timeout=60)
            assert _sig(results) == _sig(prepared.run(k=3))

    def test_exception_lands_on_future(self):
        def broken(values, slope):
            raise RuntimeError("boom")

        with ShapeSearch(_table(groups=3)) as session:
            with temporary_udp("broken", broken):
                future = session.prepare(
                    "[p=udp:broken]", z="z", x="x", y="y"
                ).submit(k=1)
                assert isinstance(future.exception(timeout=60), RuntimeError)
                with pytest.raises(RuntimeError):
                    future.result(timeout=60)
                assert future.done() and not future.cancelled()


class TestCancellation:
    def test_cancel_multishard_then_rerun_byte_identical(self, slow_shards):
        table = _table(groups=12)
        with ShapeSearch(table, workers=2) as session:
            prepared = session.prepare("[p=up][p=down]", z="z", x="x", y="y")
            future = prepared.submit(k=3)
            while future.progress[0] < 1:  # let at least one shard land
                time.sleep(0.005)
            assert future.cancel()
            with pytest.raises(SearchCancelled):
                future.result(timeout=120)
            assert future.cancelled()
            # The pool is reusable and the rerun is byte-identical to an
            # uncancelled execution on a fresh session.
            rerun = prepared.run(k=3)
            resubmitted = prepared.submit(k=3).result(timeout=120)
        with ShapeSearch(table, workers=2) as fresh:
            reference = fresh.prepare("[p=up][p=down]", z="z", x="x", y="y").run(k=3)
        assert _sig(rerun) == _sig(reference)
        assert _sig(resubmitted) == _sig(reference)

    def test_cancel_before_dispatch(self):
        gate = threading.Event()

        def blocking(values, slope):
            assert gate.wait(timeout=60)
            return 0.5

        with ShapeSearch(_table(groups=3)) as session:
            with temporary_udp("gate3", blocking):
                prepared = session.prepare("[p=udp:gate3]", z="z", x="x", y="y")
                # Occupy both driver threads so the third submit is queued,
                # then cancel it before it ever starts.
                first = prepared.submit(k=1)
                second = prepared.submit(k=1)
                queued = prepared.submit(k=1)
                assert queued.cancel()
                with pytest.raises(SearchCancelled):
                    queued.result(timeout=60)
                gate.set()
                assert len(first.result(timeout=60)) > 0
                assert len(second.result(timeout=60)) > 0

    def test_cancel_after_completion_returns_false(self):
        with ShapeSearch(_table(groups=3)) as session:
            future = session.prepare("[p=up]", z="z", x="x", y="y").submit(k=1)
            results = future.result(timeout=60)
            assert not future.cancel()
            assert not future.cancelled()
            assert future.result(timeout=1) is results

    def test_cancel_true_guarantees_cancelled_resolution(self):
        # The race where cancel() lands after the pipeline's last check
        # but before the driver resolves: a True cancel() must still
        # resolve the future as cancelled (the result is discarded).
        from repro.results import SearchFuture

        control = ExecutionControl()
        future = SearchFuture(control)
        assert future._start()
        assert future.cancel()
        future._finish(result="late result")
        assert future.cancelled()
        with pytest.raises(SearchCancelled):
            future.result(timeout=1)

    def test_cancel_true_wraps_concurrent_execution_error(self):
        # cancel() == True must resolve as cancelled even when the
        # execution fails concurrently; the real error stays chained.
        from repro.results import SearchFuture

        control = ExecutionControl()
        future = SearchFuture(control)
        assert future._start()
        assert future.cancel()
        future._finish(exception=RuntimeError("worker died"))
        assert future.cancelled()
        resolution = future.exception(timeout=1)
        assert isinstance(resolution, SearchCancelled)
        assert isinstance(resolution.__cause__, RuntimeError)

    def test_sequential_path_cancel_drops_single_shard(self):
        # workers=1 routes through SequentialScore: the whole collection
        # is one shard, dropped when the cancel precedes scoring.
        control = ExecutionControl()
        control.cancel()
        session = ShapeSearch(_table(groups=3))
        prepared = session.prepare("[p=up]", z="z", x="x", y="y")
        with pytest.raises(SearchCancelled):
            session.engine.run(
                session.table, prepared.params, prepared.compiled, k=1,
                control=control,
            )
        assert control.dropped == 1


class TestSubmitMany:
    def test_batch_futures_resolve_in_order(self):
        with ShapeSearch(_table(groups=8)) as session:
            queries = ["[p=up][p=down]", "[p=down][p=up]", "[p=up]"]
            futures = session.submit_many(queries, z="z", x="x", y="y", k=3)
            assert len(futures) == 3
            gathered = [future.result(timeout=120) for future in futures]
            for query, results in zip(queries, gathered):
                expected = session.prepare(query, z="z", x="x", y="y").run(k=3)
                assert _sig(results) == _sig(expected)

    def test_batch_progress_carries_query_index(self):
        events = []
        with ShapeSearch(_table(groups=6)) as session:
            futures = session.submit_many(
                ["[p=up]", "[p=down]"], z="z", x="x", y="y", k=2,
                progress=lambda i, c, t: events.append((i, c, t)),
            )
            for future in futures:
                future.result(timeout=120)
        assert {index for index, _c, _t in events} == {0, 1}

    def test_cancelling_one_future_spares_the_rest(self):
        with temporary_udp("sleepy", _sleep_udp):
            with ShapeSearch(_table(groups=6), workers=2) as session:
                futures = session.submit_many(
                    ["[p=udp:sleepy]", "[p=up]", "[p=down]"],
                    z="z", x="x", y="y", k=2,
                )
                assert futures[0].cancel()
                with pytest.raises(SearchCancelled):
                    futures[0].result(timeout=120)
                assert len(futures[1].result(timeout=120)) > 0
                assert len(futures[2].result(timeout=120)) > 0

    def test_batch_amortizes_generation(self, monkeypatch):
        import repro.engine.executor as executor_module

        calls = []
        real = executor_module.generate_trendlines

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(executor_module, "generate_trendlines", counting)
        with ShapeSearch(_table(groups=6)) as session:
            futures = session.submit_many(
                ["[p=up][p=down]", "[p=down][p=up]", "[p=up]"],
                z="z", x="x", y="y", k=2,
            )
            for future in futures:
                future.result(timeout=120)
        # One shared EXTRACT/GROUP pass for the all-fuzzy batch.
        assert len(calls) == 1


class TestEngineClose:
    def test_close_resolves_queued_futures_as_cancelled(self):
        gate = threading.Event()

        def blocking(values, slope):
            assert gate.wait(timeout=60)
            return 0.5

        session = ShapeSearch(_table(groups=3))
        with temporary_udp("gate4", blocking):
            prepared = session.prepare("[p=udp:gate4]", z="z", x="x", y="y")
            running = [prepared.submit(k=1), prepared.submit(k=1)]
            queued = prepared.submit(k=1)
            closer = threading.Thread(target=session.close)
            closer.start()
            gate.set()  # let the two running drivers finish
            closer.join(timeout=60)
            assert not closer.is_alive()
            for future in running:
                assert len(future.result(timeout=60)) > 0
            with pytest.raises(SearchCancelled):
                queued.result(timeout=60)

    def test_engine_usable_for_blocking_run_after_close(self):
        session = ShapeSearch(_table(groups=3))
        prepared = session.prepare("[p=up]", z="z", x="x", y="y")
        prepared.submit(k=1).result(timeout=60)
        session.close()
        assert len(prepared.run(k=1)) > 0


class TestSubmitStorm:
    """Serving-shaped load: N tenants x M queries with randomized cancels.

    The serving layer multiplexes every tenant's searches over per-table
    sessions and sheds load by cancelling queued futures; these tests pin
    the session-API guarantees it leans on — no cross-tenant bleed under
    interleaved submits, cancelled futures always resolve, post-cancel
    reruns are byte-identical, and the worker pool is reused rather than
    rebuilt across the storm.
    """

    QUERIES = ["[p=up][p=down]", "[p=down][p=up]", "[p=up]", "[p=down]"]

    def test_multi_tenant_storm_randomized_cancels_no_bleed(self):
        # One session per tenant over tenant-specific data (distinct
        # seeds), exactly the registry's model.  Reference signatures
        # come from fresh single-query sessions so any bleed between
        # concurrently storming tenants shows up as a signature diff.
        tenants = ["alpha", "beta", "gamma"]
        tables = {
            name: _table(groups=8, seed=index + 10)
            for index, name in enumerate(tenants)
        }
        reference = {}
        for name in tenants:
            with ShapeSearch(tables[name]) as clean:
                for query in self.QUERIES:
                    results = clean.prepare(
                        query, z="z", x="x", y="y"
                    ).run(k=3)
                    reference[name, query] = _sig(results)

        rng = np.random.default_rng(2024)
        sessions = {
            name: ShapeSearch(tables[name], workers=2) for name in tenants
        }
        try:
            prepared = {
                (name, query): sessions[name].prepare(
                    query, z="z", x="x", y="y"
                )
                for name in tenants
                for query in self.QUERIES
            }
            inflight = []
            for repeat in range(3):
                for name in tenants:
                    for query in self.QUERIES:
                        future = prepared[name, query].submit(k=3)
                        wants_cancel = bool(rng.random() < 0.35)
                        if wants_cancel:
                            future.cancel()
                        inflight.append((name, query, future, wants_cancel))

            outcomes = {"completed": 0, "cancelled": 0}
            for name, query, future, wants_cancel in inflight:
                try:
                    results = future.result(timeout=120)
                except SearchCancelled:
                    assert wants_cancel  # only requested cancels cancel
                    outcomes["cancelled"] += 1
                else:
                    assert _sig(results) == reference[name, query]
                    outcomes["completed"] += 1
            assert outcomes["completed"] > 0  # the storm did real work
            assert outcomes["cancelled"] > 0  # ... and real cancels

            # Post-cancel reruns on the stormed sessions stay
            # byte-identical to the clean references.
            for name in tenants:
                for query in self.QUERIES:
                    rerun = prepared[name, query].run(k=3)
                    assert _sig(rerun) == reference[name, query]
        finally:
            for session in sessions.values():
                session.close()

    def test_gated_cancel_storm_reuses_pool(self):
        # Deterministic cancels: a gated UDP holds every shard, half the
        # futures are cancelled while provably incomplete, then the gate
        # opens.  Survivors finish with real results, cancelled futures
        # raise, and the engine's worker pool is the same object before
        # and after the storm (serving keeps sessions hot; a cancel that
        # poisoned the pool would rebuild it per request).
        gate = threading.Event()

        def blocking(values, slope):
            assert gate.wait(timeout=60)
            return 0.5

        with ShapeSearch(_table(groups=6), workers=2) as session:
            warm = session.prepare("[p=up]", z="z", x="x", y="y")
            warm.run(k=2)  # builds the pool
            pools_before = dict(session.engine._pools)
            assert pools_before
            with temporary_udp("storm_gate", blocking):
                prepared = session.prepare(
                    "[p=udp:storm_gate]", z="z", x="x", y="y"
                )
                futures = [prepared.submit(k=2) for _ in range(6)]
                doomed = futures[1::2]
                for future in doomed:
                    future.cancel()
                gate.set()
                for future in futures:
                    if future in doomed:
                        # Every shard was gate-blocked when the cancel
                        # landed, so the cancel always wins — whether
                        # the future resolved before the gate opened
                        # (never started) or at the next checkpoint.
                        with pytest.raises(SearchCancelled):
                            future.result(timeout=120)
                        assert future.cancelled()
                    else:
                        assert len(future.result(timeout=120)) > 0
            pools_after = dict(session.engine._pools)
            assert set(pools_after) == set(pools_before)
            for key, pool in pools_before.items():
                assert pools_after[key] is pool
            # The surviving pool still serves: rerun byte-identical to a
            # pre-storm run of the same plain query.
            assert _sig(warm.run(k=2)) == _sig(warm.run(k=2))
