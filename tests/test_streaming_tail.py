"""End-to-end tests for the streaming tail (session.tail / TailSearch).

The contract under test is ISSUE PR 6's tentpole acceptance criterion:
after any sequence of appends, ``tail.results`` is byte-identical —
keys, scores, placements, tie-breaks — to a cold ``prepared.run()`` over
the final table, for every worker count and kernel.
"""

import math

import numpy as np
import pytest

from repro.api import ShapeSearch, TailSearch
from repro.data.table import Table
from repro.engine.control import ExecutionControl
from repro.engine.executor import ShapeSearchEngine
from repro.errors import ExecutionError, SearchCancelled

QUERY = "up then down then up"


def _records(groups, rows, offset=0, seed=0):
    rng = np.random.default_rng(seed + 17 * offset)
    out = []
    for g in groups:
        phase = (hash(g) % 7) * 0.9
        for i in range(rows):
            out.append({
                "z": g,
                "x": float(offset + i),
                "y": float(np.sin((offset + i) / 4.0 + phase)
                          + rng.normal(0, 0.05)),
            })
    return out


def _signature(results):
    return [
        (
            m.key,
            m.score,
            tuple(
                (p.seg_index, p.start, p.end, p.score, p.slope)
                for p in m.placements
            ),
        )
        for m in results
    ]


GROUPS = ["g{}".format(i) for i in range(8)]


def _run_tail_scenario(session):
    tail = session.tail(QUERY, z="z", x="x", y="y", k=5)
    assert tail.revision == 0
    tail.append_rows(_records(["g1", "g4"], 6, offset=24))
    tail.append_rows(_records(["fresh"], 18, offset=0))
    live = tail.append_rows(_records(GROUPS + ["fresh"], 4, offset=40))
    assert tail.revision == 3
    cold = tail.run(k=5)
    assert _signature(live) == _signature(cold)
    return tail, live


#: Groups first seen in an order their ``str`` order is not.
TIED = ["t7", "t3", "t5", "t1", "t6", "t2"]


def _tied_records(groups, rows, offset=0):
    """The same noise-free rows for every group: equal rows, equal scores."""
    return [
        {"z": g, "x": float(offset + i), "y": float(np.sin((offset + i) / 4.0))}
        for g in groups
        for i in range(rows)
    ]


def _run_tied_scenario(session):
    tail = session.tail(QUERY, z="z", x="x", y="y", k=4)
    tail.append_rows(_tied_records(["t3", "t1"], 6, offset=24))
    live = tail.append_rows(_tied_records(TIED, 4, offset=40))
    assert _signature(live) == _signature(tail.run(k=4))
    # t1 = t3 score above the four-way tie t7 = t5 = t6 = t2, which k = 4
    # cuts: the first-seen t7 and t5 stay, not t2 and t5 by str(key).
    assert [m.key for m in live] == ["t1", "t3", "t5", "t7"]


class TestByteIdentity:
    """Delta-vs-cold equality across kernel x workers."""

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("algorithm,kernel", [
        ("segment-tree", "matrix"),
        ("dp", "matrix"),
        ("dp", "loop"),
    ])
    def test_tail_matches_cold_run(self, workers, algorithm, kernel, shard_floor):
        shard_floor(2)  # a refresh's few affected groups still cut into shards
        engine = ShapeSearchEngine(algorithm=algorithm, kernel=kernel, workers=workers)
        with ShapeSearch(Table.from_records(_records(GROUPS, 24)),
                         engine=engine) as session:
            tail, live = _run_tail_scenario(session)
            assert live.stats.generation == "tail"
            assert live.revision == 3
        with ShapeSearch(Table.from_records(_tied_records(TIED, 24)),
                         engine=engine) as session:
            _run_tied_scenario(session)

    def test_filters_limit_affected_groups(self):
        records = _records(GROUPS, 24)
        for index, record in enumerate(records):
            record["region"] = "north" if index % 2 else "south"
        with ShapeSearch.from_records(records) as session:
            tail = session.tail(
                QUERY, z="z", x="x", y="y", k=5,
                filters=['region == "north"'],
            )
            batch = _records(["g1", "g2"], 6, offset=24)
            for record in batch:
                record["region"] = "south"  # filtered out entirely
            live = tail.append_rows(batch)
            # Nothing survives the filter: no groups re-scored...
            assert live.stats.scored == 0
            # ...but the result still reflects (and equals) the new table.
            assert _signature(live) == _signature(tail.run(k=5))

    def test_nan_group_keys_round_trip(self):
        records = _records(GROUPS[:4], 24)
        records += [
            {"z": float("nan"), "x": float(i), "y": float(math.sin(i / 3.0))}
            for i in range(24)
        ]
        with ShapeSearch.from_records(records) as session:
            tail = session.tail(QUERY, z="z", x="x", y="y", k=10)
            live = tail.append_rows([
                {"z": float("nan"), "x": float(24 + i), "y": float(i)}
                for i in range(4)
            ])
            assert _signature(live) == _signature(tail.run(k=10))


class TestRefreshSemantics:
    def test_refresh_without_appends_returns_cached(self):
        with ShapeSearch.from_records(_records(GROUPS, 24)) as session:
            tail = session.tail(QUERY, z="z", x="x", y="y", k=5)
            first = tail.results
            assert tail.refresh() is first
            assert tail.revision == 0

    def test_revision_and_stats_track_appends(self):
        with ShapeSearch.from_records(_records(GROUPS, 24)) as session:
            tail = session.tail(QUERY, z="z", x="x", y="y", k=5)
            assert tail.results.revision == 0
            assert tail.results.stats.appended_rows == 0
            live = tail.append_rows(_records(["g2"], 6, offset=24))
            assert live.revision == 1
            assert live.stats.appended_rows == 6
            assert live.stats.scored == 1  # only g2 re-scored
            assert live.stats.generation == "tail"

    def test_results_is_resultset_with_plan(self):
        with ShapeSearch.from_records(_records(GROUPS, 24)) as session:
            tail = session.tail(QUERY, z="z", x="x", y="y", k=3)
            live = tail.append_rows(_records(["g0"], 4, offset=24))
            assert len(live) <= 3
            assert "IncrementalMerge" in live.plan
            assert "ScanDelta" in live.plan

    def test_missing_column_raises(self):
        with ShapeSearch.from_records(_records(GROUPS, 24)) as session:
            with pytest.raises(Exception):
                session.tail(QUERY, z="nope", x="x", y="y")

    def test_run_and_submit_still_work_on_tail(self):
        """TailSearch is a PreparedSearch: the one-shot surface remains."""
        with ShapeSearch.from_records(_records(GROUPS, 24)) as session:
            tail = session.tail(QUERY, z="z", x="x", y="y", k=5)
            future = tail.submit(k=5)
            assert _signature(future.result(timeout=60)) == _signature(tail.run(k=5))


class TestCancellation:
    def test_precancelled_control_raises_and_preserves_state(self):
        with ShapeSearch.from_records(_records(GROUPS, 24)) as session:
            tail = session.tail(QUERY, z="z", x="x", y="y", k=5)
            before = tail.results
            revision = tail.revision
            tail.table = tail.table.append_rows(_records(["g3"], 6, offset=24))
            control = ExecutionControl()
            control.cancel()
            with pytest.raises(SearchCancelled):
                tail.refresh(control)
            # Nothing applied: cached results, revision, watermark intact.
            assert tail.results is before
            assert tail.revision == revision
            # A clean retry consumes the same delta and matches cold.
            live = tail.refresh()
            assert live.revision == revision + 1
            assert _signature(live) == _signature(tail.run(k=5))

    def test_grouping_drift_raises_execution_error(self):
        with ShapeSearch.from_records(_records(GROUPS, 24)) as session:
            tail = session.tail(QUERY, z="z", x="x", y="y", k=5)
            tail.table = tail.table.append_rows(_records(["g0"], 4, offset=24))
            # Corrupt the session's group order to simulate drift.
            tail._order[tail._key_index["g0"]] = "imposter"
            with pytest.raises(ExecutionError, match="drift"):
                tail.refresh()


class TestControlDropNotify:
    """Satellite 3: drop() notifies, and terminal state is total-accounted."""

    def test_drop_notifies_progress_observer(self):
        events = []
        control = ExecutionControl(progress=lambda c, t: events.append((c, t)))
        control.begin(4)
        control.shard_completed()
        control.cancel()
        control.drop(3)
        assert events == [(0, 4), (1, 4), (1, 4)]
        completed, total, dropped = control.snapshot()
        assert completed + dropped == total  # the documented terminal contract

    def test_drop_zero_is_silent(self):
        events = []
        control = ExecutionControl(progress=lambda c, t: events.append((c, t)))
        control.begin(2)
        control.drop(0)
        assert events == [(0, 2)]

    def test_tail_progress_observer_sees_terminal_state(self):
        events = []
        with ShapeSearch.from_records(_records(GROUPS, 24)) as session:
            tail = session.tail(
                QUERY, z="z", x="x", y="y", k=5,
                progress=lambda c, t: events.append((c, t)),
            )
            tail.append_rows(_records(["g1"], 4, offset=24))
        assert events
        completed, total = events[-1]
        assert completed == total


class TestTailSearchExports:
    def test_tail_is_exported(self):
        import repro

        assert repro.TailSearch is TailSearch
        assert "TailSearch" in repro.__all__
