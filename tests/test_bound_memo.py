"""The shape index's level-bound memo changes no float, block or count.

Every :class:`~repro.engine.shape_index.ShapeIndex` memoizes the level
bounds its queries evaluate, keyed by the query's bound signature, the
``n_bins`` class and the level.  The frontier still decides which rows
each level evaluates; the memo only decides which of them are computed.
So a frontier on an index that earlier runs warmed must equal one on a
fresh copy of the index, bit for bit: bounds (signed zeros included),
``refined``, ``rounds`` and every block drawn.
"""

import gc
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.algebra import builder as q
from repro.engine.executor import ShapeSearchEngine
from repro.engine.parallel import round_size, solve_many
from repro.parser import parse
from repro.engine.shape_index import (
    BoundFrontier,
    ShapeIndex,
    TopKFloor,
    _bound_signature,
)

from tests.conftest import make_trendline
from tests.oracles import index_bounds as bounds_oracle

UP_DOWN = q.concat(q.up(), q.down())

#: An ``Or`` of two chains, a negated flat and a negated θ, a line unit,
#: and a negated ``up`` whose bound on a constant series is −0.0.
QUERIES = [
    UP_DOWN,
    q.or_(q.concat(q.up(), q.down()), q.concat(q.flat(), q.up())),
    q.concat(q.opposite(q.flat()), q.down()),
    q.concat(q.up(), q.opposite(q.slope(45.0))),
    q.concat(q.segment(y_start=0.0, y_end=1.0), q.up()),
    q.concat(q.opposite(q.up())),
]


def _collection():
    """Four-, two- and one-level classes, unindexed and constant series."""
    rng = np.random.default_rng(47)
    trendlines = []
    for i, n in enumerate([64, 24, 12, 5, 64, 24] * 14):
        if i % 11 == 0:
            y = np.full(n, 3.0)
        elif i % 5 == 0:
            y = np.concatenate([np.linspace(0, 8, n // 2), np.linspace(8, 0, n - n // 2)])
        else:
            y = np.linspace(8, 0, n) + rng.normal(0, 0.3, n)
        trendlines.append(make_trendline(y, key="m{:03d}".format(i)))
    return trendlines


@pytest.fixture(scope="module")
def collection():
    trendlines = _collection()
    engine = ShapeSearchEngine()
    scores = {}
    for node in QUERIES:
        compiled = engine.compile(node)
        results = solve_many(trendlines, compiled, "segment-tree")
        scores[node] = (compiled, [float(result.score) for result in results])
    return trendlines, scores


def _drive(index, compiled, scores, k):
    """One best-first run: the frontier and every block it drew."""
    frontier = BoundFrontier(index, compiled)
    floor = TopKFloor(k)
    blocks = []
    while True:
        block = frontier.next_block(round_size(k, frontier.rounds), floor.value)
        if not block:
            return frontier, blocks
        blocks.append(block)
        floor.add(scores[position] for position in block)


def _assert_same_run(warm, cold):
    (frontier, blocks), (reference, reference_blocks) = warm, cold
    assert frontier.bounds.tobytes() == reference.bounds.tobytes()
    assert frontier.refined == reference.refined
    assert frontier.rounds == reference.rounds
    assert blocks == reference_blocks


class TestMemoParity:
    @pytest.mark.parametrize("ks", [(1, 5, 20, 20, 5, 1), (20, 1, 5, 1)])
    @pytest.mark.parametrize("node", QUERIES, ids=repr)
    def test_warm_frontier_equals_a_fresh_index(self, collection, node, ks):
        # k = 1 leaves the finest level partly filled: a later k = 20
        # reads those rows and computes the rest.
        trendlines, scores = collection
        compiled, exact = scores[node]
        index = ShapeIndex.build(trendlines)
        reused = 0
        for k in ks:
            fresh = ShapeIndex.from_packed(*index.pack())
            warm = _drive(index, compiled, exact, k)
            _assert_same_run(warm, _drive(fresh, compiled, exact, k))
            reused += sum(warm[0].refined) - sum(warm[0].computed)
            assert all(0 <= c <= r for c, r in zip(warm[0].computed, warm[0].refined))
        assert reused > 0

    def test_negative_zero_bounds_survive_the_memo(self, collection):
        trendlines, scores = collection
        compiled, exact = scores[q.concat(q.opposite(q.up()))]
        index = ShapeIndex.build(trendlines)
        first = index.upper_bounds(compiled)
        second = index.upper_bounds(compiled)
        constant = [i for i in range(0, len(trendlines), 11) if trendlines[i].n_bins > 5]
        assert (first[constant] == 0.0).all() and np.signbit(first[constant]).all()
        assert second.tobytes() == first.tobytes()
        assert first.tobytes() == bounds_oracle.upper_bounds(index, compiled).tobytes()

    def test_upper_bounds_reads_what_a_frontier_left(self, collection):
        trendlines, scores = collection
        compiled, exact = scores[UP_DOWN]
        index = ShapeIndex.build(trendlines)
        _drive(index, compiled, exact, 1)
        for floor in (0.5, -np.inf):
            assert index.upper_bounds(compiled, floor).tobytes() == (
                bounds_oracle.upper_bounds(index, compiled, floor).tobytes()
            )

    def test_each_bound_operand_gets_its_own_entry(self, collection):
        # Weight only (up, down, up at 1/4, 1/4, 1/2 or 1/2, 1/4, 1/4),
        # θ only, negation only, chain order only.
        trendlines, _scores = collection
        engine = ShapeSearchEngine()
        pairs = [
            (q.concat(q.concat(q.up(), q.down()), q.up()),
             q.concat(q.up(), q.concat(q.down(), q.up()))),
            (q.concat(q.slope(30.0), q.down()), q.concat(q.slope(45.0), q.down())),
            (q.concat(q.flat(), q.down()), q.concat(q.opposite(q.flat()), q.down())),
            (q.or_(q.concat(q.up(), q.down()), q.concat(q.down(), q.up())),
             q.or_(q.concat(q.down(), q.up()), q.concat(q.up(), q.down()))),
        ]
        for one, other in pairs:
            index = ShapeIndex.build(trendlines)
            compiled = [engine.compile(one), engine.compile(other)]
            assert _bound_signature(compiled[0]) != _bound_signature(compiled[1])
            index.upper_bounds(compiled[0])
            entries = len(index._bounds_memo)
            assert entries == sum(len(levels) for _n, _p, levels in index._tiles)
            bounds = index.upper_bounds(compiled[1])
            assert len(index._bounds_memo) == 2 * entries
            reference = bounds_oracle.upper_bounds(index, compiled[1])
            assert bounds.tobytes() == reference.tobytes()

    def test_spellings_of_one_query_share_an_entry(self, collection):
        trendlines, _scores = collection
        engine = ShapeSearchEngine()
        index = ShapeIndex.build(trendlines)
        index.upper_bounds(engine.compile(UP_DOWN))
        entries = len(index._bounds_memo)
        index.upper_bounds(engine.compile(parse("[p=up][p=down]")))
        assert len(index._bounds_memo) == entries
        assert index._bounds_memo.stats.hits == entries

    def test_plan_reports_the_rows_computed(self, collection):
        trendlines, _scores = collection
        engine = ShapeSearchEngine(index=True)
        plans = [engine.rank(trendlines, UP_DOWN, k=3).plan for _ in range(2)]
        details = [plan.split("IndexPrune[pyramid] ")[1].splitlines()[0] for plan in plans]
        refined = [detail.split("refined=")[1].split(" ")[0] for detail in details]
        computed = [detail.split("computed=")[1] for detail in details]
        assert refined[0] == refined[1]
        assert computed[0] == refined[0]
        assert set(computed[1].strip("[]").split(",")) == {"0"}


class TestMemoLifetime:
    def test_threads_sharing_an_index_equal_a_single_thread(self, collection):
        trendlines, scores = collection
        nodes = [UP_DOWN, QUERIES[1], QUERIES[2], UP_DOWN, QUERIES[4], UP_DOWN]
        runs = [(scores[node], k) for node, k in zip(nodes, (1, 5, 20, 20, 1, 5))]

        def signature(run):
            frontier, blocks = run
            return frontier.bounds.tobytes(), frontier.refined, frontier.rounds, blocks

        expected = [
            signature(_drive(ShapeIndex.build(trendlines), compiled, exact, k))
            for (compiled, exact), k in runs
        ]
        index = ShapeIndex.build(trendlines)
        got = [[] for _ in runs]
        barrier = threading.Barrier(len(runs))

        def work(slot):
            (compiled, exact), k = runs[slot]
            barrier.wait(timeout=30)
            for _ in range(4):
                got[slot].append(signature(_drive(index, compiled, exact, k)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(slot,)) for slot in range(len(runs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for slot, results in enumerate(got):
            assert results == [expected[slot]] * 4

    def test_memo_never_pickles(self, collection):
        trendlines, scores = collection
        compiled, _exact = scores[UP_DOWN]
        index = ShapeIndex.build(trendlines)
        bounds = index.upper_bounds(compiled)
        assert len(index._bounds_memo)
        assert "_bounds_memo" not in index.__getstate__()
        copy = pickle.loads(pickle.dumps(index))
        assert len(copy._bounds_memo) == 0
        assert copy._bounds_memo.max_bytes == index.nbytes
        assert copy.upper_bounds(compiled).tobytes() == bounds.tobytes()

    def test_memo_is_freed_with_its_index(self, collection):
        trendlines, scores = collection
        compiled, exact = scores[UP_DOWN]
        index = ShapeIndex.build(trendlines)
        frontier, _blocks = _drive(index, compiled, exact, 5)
        memo = weakref.ref(index._bounds_memo)
        del index, frontier
        gc.collect()
        assert memo() is None

    def test_memo_evicts_by_bytes_at_the_index_size(self):
        # One 8-bin class: a single 4-super-bin level of 10 buckets, so
        # the block is 80 bytes a member and an entry 8: ten θ targets
        # fill the budget and the eleventh evicts the oldest.
        trendlines = [
            make_trendline(np.linspace(0, i, 8), key="s{:02d}".format(i)) for i in range(20)
        ]
        index = ShapeIndex.build(trendlines)
        memo = index._bounds_memo
        assert memo.max_bytes == index.nbytes == 20 * 80
        engine = ShapeSearchEngine()
        for step, theta in enumerate(range(5, 60, 5)):
            index.upper_bounds(engine.compile(q.slope(float(theta))))
            assert memo.stats.bytes == min(step + 1, 10) * 20 * 8 <= index.nbytes
        assert memo.stats.evictions == 1 and len(memo) == 10
