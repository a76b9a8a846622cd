"""Determinism regression tests: same inputs, same results — always.

Guards the shard-merge tie-breaking in ``rank()``: top-k selection uses
the total order *(score desc, candidate position asc)*, so the result
must be identical across runs, across engine instances, and across any
worker count and sharding — including collections with exact score
ties.
"""

import numpy as np
import pytest

from repro.algebra import builder as q
from repro.data.table import Table
from repro.data.visual_params import VisualParams
from repro.engine.executor import ShapeSearchEngine

from tests.conftest import make_trendline

QUERY = q.concat(q.up(), q.down(), q.up())


def _collection(count: int = 24, seed: int = 9):
    rng = np.random.default_rng(seed)
    return [
        make_trendline(rng.normal(0, 1, 40).cumsum(), key="tl{:02d}".format(index))
        for index in range(count)
    ]


def _signature(matches):
    """Everything observable about a result list, byte-for-byte."""
    return [
        (
            match.key,
            match.score,
            match.result.chain_index,
            [
                (p.seg_index, p.start, p.end, p.score, p.slope)
                for p in match.placements
            ],
        )
        for match in matches
    ]


class TestRunToRunDeterminism:
    def test_same_engine_repeated(self):
        engine = ShapeSearchEngine()
        trendlines = _collection()
        first = engine.rank(trendlines, QUERY, k=6)
        second = engine.rank(trendlines, QUERY, k=6)
        assert _signature(first) == _signature(second)

    def test_fresh_engine_instances(self):
        trendlines = _collection()
        first = ShapeSearchEngine().rank(trendlines, QUERY, k=6)
        second = ShapeSearchEngine().rank(trendlines, QUERY, k=6)
        assert _signature(first) == _signature(second)

    def test_execute_end_to_end_repeatable(self):
        rng = np.random.default_rng(3)
        zs, xs, ys = [], [], []
        for key in ("a", "b", "c", "d"):
            series = rng.normal(0, 1, 30).cumsum()
            for index, value in enumerate(series):
                zs.append(key)
                xs.append(float(index))
                ys.append(float(value))
        table = Table.from_arrays(z=np.array(zs, dtype=object), x=np.array(xs), y=np.array(ys))
        params = VisualParams(z="z", x="x", y="y")
        first = ShapeSearchEngine().run(table, params, QUERY, k=3)
        second = ShapeSearchEngine().run(table, params, QUERY, k=3)
        assert _signature(first) == _signature(second)


class TestWorkerCountInvariance:
    """``workers=N`` (process pool, shared memory) equals ``workers=1``.

    The default floor keeps the 24 candidates one shard — the pool plan
    runs it in the caller through the object path; a lowered floor cuts
    them into shards that travel to the workers as position ranges.
    """

    @pytest.mark.parametrize("workers,floor", [(2, None), (3, 1), (4, 5), (4, 100)])
    def test_parallel_matches_sequential(self, workers, floor, shard_floor):
        shard_floor(floor)
        trendlines = _collection()
        sequential = ShapeSearchEngine().rank(trendlines, QUERY, k=6)
        with ShapeSearchEngine(workers=workers) as parallel:
            shard_merged = parallel.rank(trendlines, QUERY, k=6)
            stats = shard_merged.stats
        assert _signature(sequential) == _signature(shard_merged)
        assert (stats.shards > 1) == (floor is not None and floor < len(trendlines))

    def test_workers_override_per_call(self):
        trendlines = _collection()
        engine = ShapeSearchEngine()
        sequential = engine.rank(trendlines, QUERY, k=5)
        overridden = engine.rank(trendlines, QUERY, k=5, workers=3)
        assert _signature(sequential) == _signature(overridden)


def _published(engine) -> int:
    """How many collections ``engine`` put into shared memory."""
    session = engine._shm_box[0]
    return 0 if session is None else len(session._collections)


class TestBackendInvariance:
    """The process pool's transports agree with the caller byte-for-byte.

    Shards travel as position ranges over a collection published once to
    shared memory; a one-shard round publishes nothing and is scored in
    the caller.  These cases pin which transport ran, not just the result.
    """

    @pytest.mark.parametrize("shm", [True, False])
    def test_process_backend_matches_sequential(self, shm, shard_floor):
        shard_floor(5 if shm else None)
        trendlines = _collection()
        sequential = ShapeSearchEngine().rank(trendlines, QUERY, k=6)
        with ShapeSearchEngine(workers=2) as parallel:
            shard_merged = parallel.rank(trendlines, QUERY, k=6)
            assert _published(parallel) == (1 if shm else 0)
        assert _signature(sequential) == _signature(shard_merged)

    @pytest.mark.parametrize("workers,floor", [(2, 3), (3, 1), (4, 100)])
    def test_shm_worker_count_invariance(self, workers, floor, shard_floor):
        shard_floor(floor)
        trendlines = _collection()
        sequential = ShapeSearchEngine().rank(trendlines, QUERY, k=6)
        with ShapeSearchEngine(workers=workers) as parallel:
            shard_merged = parallel.rank(trendlines, QUERY, k=6)
            # A floor the 24 candidates cannot fill twice keeps them one shard.
            assert _published(parallel) == (1 if 2 * floor <= len(trendlines) else 0)
        assert _signature(sequential) == _signature(shard_merged)


class TestTieBreaking:
    """Exact score ties must resolve identically for any sharding."""

    def _tied_collection(self):
        # Eight byte-identical shapes under distinct keys -> eight exact
        # score ties; plus one clear winner to stress the boundary.
        base = np.concatenate(
            [np.linspace(0, 6, 10), np.linspace(6, 1, 10), np.linspace(1, 7, 10)]
        )
        trendlines = [make_trendline(base, key="dup{}".format(i)) for i in range(8)]
        winner = np.concatenate(
            [np.linspace(0, 9, 10), np.linspace(9, 0, 10), np.linspace(0, 9, 10)]
        )
        trendlines.insert(4, make_trendline(winner, key="winner"))
        return trendlines

    @pytest.mark.parametrize("workers,floor", [(2, 2), (3, 1), (4, 4)])
    def test_ties_shard_invariant(self, workers, floor, shard_floor):
        shard_floor(floor)
        trendlines = self._tied_collection()
        sequential = ShapeSearchEngine().rank(trendlines, QUERY, k=4)
        with ShapeSearchEngine(workers=workers) as parallel:
            shard_merged = parallel.rank(trendlines, QUERY, k=4)
        assert _signature(sequential) == _signature(shard_merged)

    @pytest.mark.parametrize("workers,floor", [(2, 2), (3, 1)])
    def test_ties_survive_shm_transport(self, workers, floor, shard_floor):
        # Byte-identical duplicates cross process and shared-memory
        # boundaries; the (score desc, position asc) order must still pick
        # the earliest input positions.
        shard_floor(floor)
        trendlines = self._tied_collection()
        sequential = ShapeSearchEngine().rank(trendlines, QUERY, k=4)
        with ShapeSearchEngine(workers=workers) as parallel:
            shard_merged = parallel.rank(trendlines, QUERY, k=4)
            assert _published(parallel) == 1
        assert _signature(sequential) == _signature(shard_merged)

    def test_tied_selection_prefers_earlier_candidates(self):
        trendlines = self._tied_collection()
        matches = ShapeSearchEngine().rank(trendlines, QUERY, k=4)
        assert matches[0].key == "winner"
        # The surviving ties are the earliest positions in input order.
        assert [m.key for m in matches[1:]] == ["dup0", "dup1", "dup2"]
