"""Parallel batch execution: shard candidates across a worker pool.

The SEGMENT + SCORE loop of :class:`~repro.engine.executor.ShapeSearchEngine`
is embarrassingly parallel across candidate visualizations: each
trendline is scored independently and only the top-k survive.  This
module shards a candidate collection into position ranges, scores each
range, and merges the per-shard top-k heaps deterministically.

Determinism contract: every candidate carries its global position in
the input collection, shards keep their local top-k under the total
order *(score desc, position asc)*, and the merge re-applies the same
order — so ``workers=N`` returns byte-identical results to ``workers=1``
for any N and any sharding, including exact score ties.

``workers=1`` scores in the caller.  ``workers>1`` scores on a
:class:`WorkerPool` of processes: the collection and the compiled query
are published to shared memory once (:mod:`repro.engine.shm`), shards
travel as ``(handle, positions)`` resolved against the worker-resident
collection and come back without trendlines, so a task is a few hundred
bytes each way.  Only rounds that would publish a collection for a
handful of candidates ship their trendlines as objects instead
(:func:`dispatch_score_shards`).
"""

from __future__ import annotations

import heapq
import os
import threading
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.chains import CompiledQuery
from repro.engine.collection import BLOCK_ELEMENTS
from repro.engine.dynamic import QueryResult, ScoreBlock, solve_query, solve_query_batched
from repro.engine.greedy import greedy_run_solver
from repro.engine.pushdown import eager_upper_bound, plan_pushdown
from repro.engine.segment_tree import BATCH_BLOCK, segment_tree_batch_solver
from repro.engine.shape_index import MIN_SEED_CANDIDATES
from repro.engine.statistics import PrefixStats
from repro.engine.trendline import Trendline
from repro.errors import ExecutionError

#: Shards per pool worker — a few per worker lets the pool balance
#: uneven shard costs.
_CHUNKS_PER_WORKER = 4

#: The Score stage's shard floor: whole :data:`BATCH_BLOCK` kernel
#: blocks (:func:`score_ranges`, :func:`dispatch_tail_scores`).
SHARD_FLOOR = BATCH_BLOCK


def default_workers() -> int:
    """Worker count used when ``workers=None``: one per CPU this process may use.

    The affinity mask (``taskset``, a cgroup cpuset) bounds it where the
    platform reports one; elsewhere it is the machine's core count.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


@dataclass
class ShardResult:
    """One shard's local top-k plus its slice of the execution counters.

    ``items`` hold ``(score, global position, trendline, result)`` so the
    merge can re-establish the global candidate order (a shard scored by
    position in a worker travels back with ``None`` trendlines — the
    parent re-attaches its own); the counters are summed into the
    caller's :class:`ExecutionStats` — per-shard stats are never shared,
    which is what makes concurrent execution safe.
    """

    items: List[Tuple[float, int, Optional[Trendline], QueryResult]] = field(
        default_factory=list
    )
    scored: int = 0
    eager_discarded: int = 0


def solve_many(
    trendlines: Sequence[Trendline],
    query: CompiledQuery,
    algorithm: str,
    kernel: Optional[str] = None,
) -> ScoreBlock:
    """Score a collection of candidates with the named algorithm.

    The single Score funnel: every collection-level call site (shards,
    tail re-scores, index rounds) hands its candidates over together.
    ``"segment-tree"`` solves them with one level-wise array combine per
    tree, whatever their lengths
    (:class:`~repro.engine.segment_tree.BatchedSegmentTree`), a tree
    taking candidates while its table fits
    :data:`~repro.engine.segment_tree.BATCH_CELLS`; the other
    algorithms have no cross-candidate kernel and simply loop.  Either
    way the answer is a :class:`~repro.engine.dynamic.ScoreBlock`.

    ``kernel`` picks the DP transition kernel (``"matrix"``/``"loop"``,
    None = the module default); it only affects ``algorithm="dp"`` — the
    two kernels are byte-identical, so this is a benchmarking/oracle
    knob, not a semantic one.
    """
    if algorithm == "segment-tree":
        return solve_query_batched(trendlines, query, segment_tree_batch_solver)
    if algorithm == "dp":
        # kernel= (rather than run_solver=) records the choice in the
        # solve context, so nested sub-queries and AND exact-covers run
        # the same kernel as the top-level chains.
        return ScoreBlock.of([solve_query(t, query, kernel=kernel) for t in trendlines])
    if algorithm == "greedy":
        return ScoreBlock.of(
            [solve_query(t, query, run_solver=greedy_run_solver) for t in trendlines]
        )
    raise ExecutionError("unknown algorithm {!r}".format(algorithm))


def solve_one(
    trendline: Trendline,
    query: CompiledQuery,
    algorithm: str,
    kernel: Optional[str] = None,
) -> QueryResult:
    """Score one candidate: the one-element case of :func:`solve_many`."""
    return solve_many([trendline], query, algorithm, kernel=kernel)[0]


def score_shard(
    trendlines: Sequence[Trendline],
    base_position: int,
    query: CompiledQuery,
    k: int,
    algorithm: str = "segment-tree",
    enable_pushdown: bool = True,
    has_eager_checks: Optional[bool] = None,
    kernel: Optional[str] = None,
    positions: Optional[Sequence[int]] = None,
) -> ShardResult:
    """Score one shard and keep its local top-k.

    ``positions`` names each trendline's global position (ascending);
    by default the shard is the contiguous run starting at
    ``base_position``.  The local heap uses the same total order as the
    merge — *(score desc, global position asc)* — so a candidate in the
    global top-k is always in its shard's local top-k, and ties at the
    boundary resolve identically no matter how candidates were sharded.

    Candidates are scored in blocks through :func:`solve_many`.  Without
    eager checks a block holds as many candidates as
    :data:`~repro.engine.collection.BLOCK_ELEMENTS` of their concatenated
    prefix rows fit, and never fewer than :data:`BATCH_BLOCK`; the kernel
    cuts it into trees by table size.  Eager discarding (push-down (b))
    tests each candidate's optimistic bound against the *shard-local*
    top-k floor as it stands before the candidate's block: the first
    block is cut where it fills the heap (no floor exists before that),
    every later one holds :data:`BATCH_BLOCK` candidates.  Still exact —
    a discarded candidate provably cannot enter the top k, and a shard
    hands over a strict superset of its global-top-k members — though the
    ``eager_discarded`` counter depends on the block size and can differ
    across worker counts, since each shard's floor tightens independently.
    """
    shard = ShardResult()
    if positions is None:
        positions = range(base_position, base_position + len(trendlines))
    if has_eager_checks is None:
        has_eager_checks = enable_pushdown and plan_pushdown(query).has_eager_checks
    check_eager = enable_pushdown and has_eager_checks
    if not check_eager:  # where each candidate's prefix rows end, end to end
        row_ends = np.cumsum([t.n_bins + 1 for t in trendlines]) * len(PrefixStats.STACKED_ROWS)
    heap: List[tuple] = []  # min-heap on (score, -position): worst kept item on top
    start = 0
    while start < len(trendlines):
        size = BATCH_BLOCK
        if not check_eager:
            filled = row_ends[start - 1] if start else 0
            fit = int(np.searchsorted(row_ends, filled + BLOCK_ELEMENTS, side="right")) - start
            size = max(size, fit)
        elif len(heap) < k:
            size = min(size, k - len(heap))
        block = list(zip(positions[start : start + size], trendlines[start : start + size]))
        start += size
        if check_eager and len(heap) == k:
            floor = heap[0][0]
            kept = [
                item for item in block if eager_upper_bound(item[1], query) > floor
            ]
            shard.eager_discarded += len(block) - len(kept)
            block = kept
        results = solve_many(
            [trendline for _position, trendline in block], query, algorithm, kernel=kernel
        )
        shard.scored += len(block)
        scores = results.scores.tolist()  # ranked by column, built only if kept
        for row, (position, trendline) in enumerate(block):
            item = (scores[row], -position, trendline, results, row)
            if len(heap) < k:
                heapq.heappush(heap, item)
            elif item[:2] > heap[0][:2]:
                heapq.heapreplace(heap, item)
    shard.items = [
        (score, -neg_position, trendline, results[row])
        for score, neg_position, trendline, results, row in heap
    ]
    return shard


def score_shard_range(
    handle,
    positions: Sequence[int],
    query,
    k: int,
    algorithm: str = "segment-tree",
    enable_pushdown: bool = True,
    has_eager_checks: Optional[bool] = None,
    kernel: Optional[str] = None,
) -> ShardResult:
    """Score ``positions`` of a shared-memory-resident collection.

    ``handle`` is a :class:`~repro.engine.shm.CollectionHandle` and
    ``query`` a compiled query or a
    :class:`~repro.engine.shm.QueryHandle`; both resolve against the
    worker-resident store (attached on first use), so the task itself is
    only a manifest and the positions — a ``range`` for a full scan, the
    shard's slice of an indexed round's block.  Scoring
    and the total order are exactly :func:`score_shard` over the same
    global positions, which is what keeps results byte-identical across
    transports.  The shard travels back as ``(score, position, None,
    result)`` items: the parent already holds every trendline and
    re-attaches its own (:func:`dispatch_score_ranges`).
    """
    from repro.engine.shm import resolve_collection, resolve_query

    trendlines = resolve_collection(handle)
    shard = score_shard(
        [trendlines[position] for position in positions],
        0,
        resolve_query(query),
        k,
        algorithm=algorithm,
        enable_pushdown=enable_pushdown,
        has_eager_checks=has_eager_checks,
        kernel=kernel,
        positions=positions,
    )
    shard.items = [
        (score, position, None, result) for score, position, _, result in shard.items
    ]
    return shard


def merge_shard_results(
    shards: Sequence[ShardResult], k: int
) -> List[Tuple[float, int, Trendline, QueryResult]]:
    """Global top-k from per-shard top-k heaps, under the shared order."""
    merged = [item for shard in shards for item in shard.items]
    merged.sort(key=lambda item: (-item[0], item[1]))
    return merged[:k]


def make_range_chunks(
    count: int, workers: int, floor: int = 1
) -> List[Tuple[int, int]]:
    """Split ``count`` candidates into ``(start, end)`` index ranges.

    This is the sizing rule for *every* sharding path — score, bound,
    tail; object- and range-based alike — so all of them cover
    identical positions for any configuration.
    :data:`_CHUNKS_PER_WORKER` shards per pool worker, as even as
    possible, but never a shard below ``floor`` (the stage's kernel
    block: a smaller shard would pay a pool round trip for a partly
    filled kernel launch) unless it is the only one — and a stage with
    one shard runs in the caller (:func:`_run_tasks`), as does a
    one-worker pool, which has nothing to balance.
    """
    if count == 0:
        return []
    # Whole kernel blocks per shard (the remainder rides on the last): a
    # shard of 36 for a 32-wide kernel would pay a second launch for 4.
    floor = max(1, floor)
    blocks = max(1, count // floor)
    shards = min(workers * _CHUNKS_PER_WORKER if workers > 1 else 1, blocks)
    size, larger = divmod(blocks, shards)
    ends = [floor * (size * (shard + 1) + min(shard + 1, larger)) for shard in range(shards)]
    ends[-1] = count
    return list(zip([0] + ends[:-1], ends))


def score_ranges(count: int, workers: int) -> List[Tuple[int, int]]:
    """The Score stage's shards over ``count`` candidates left to solve.

    The one place that knows the stage's floor, :data:`SHARD_FLOOR`.
    The Score operators size a stage once, here, and hand the ranges to
    whichever transport runs them.
    """
    return make_range_chunks(count, workers, SHARD_FLOOR)


def round_size(k: int, number: int) -> int:
    """Candidates the indexed Score stage draws in round ``number`` (from 0).

    ``max(k, MIN_SEED_CANDIDATES)`` first — the fewest that can set a
    top-k floor — then one :data:`BATCH_BLOCK`, doubling: enough rounds
    for the floor to rise before most of the work is committed, few
    enough that a long tail is solved in pool-sized batches.  A pure
    function of ``(k, number)``, so every plan solves the same set.
    """
    if number == 0:
        return max(int(k), MIN_SEED_CANDIDATES)
    return BATCH_BLOCK << (number - 1)


def _shutdown_executor(executor) -> None:
    """`weakref.finalize` target: release a pool the owner never closed."""
    executor.shutdown(wait=True)


class WorkerPool:
    """A lazily created, reusable process pool.

    ``initializer``/``initargs`` run once per worker process (the engine
    passes :func:`repro.engine.shm.worker_init`).  A one-worker pool
    never starts a process: it runs every task in the caller.  A
    ``weakref.finalize`` guard shuts the underlying executor down when a
    pool is garbage-collected or the interpreter exits, so forgotten
    pools never leak worker processes; :meth:`shutdown` stays the
    deterministic path and is idempotent.

    A worker that dies (killed, out of memory) breaks the executor for
    good.  The task that finds it broken drops that executor and raises
    :class:`~repro.errors.ExecutionError`; the next task builds a fresh
    one, whose workers run ``initializer`` again.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        initializer: Optional[Callable] = None,
        initargs: Tuple = (),
    ):
        self.workers = default_workers() if workers is None else int(workers)
        if self.workers < 1:
            raise ExecutionError("workers must be >= 1, got {}".format(self.workers))
        self.initializer = initializer
        self.initargs = tuple(initargs)
        self._pool = None
        self._finalizer = None
        self._lock = threading.Lock()

    def _ensure(self):
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=self.initializer,
                    initargs=self.initargs,
                )
                self._finalizer = weakref.finalize(
                    self, _shutdown_executor, self._pool
                )
            return self._pool

    def _broken(self, executor, exc: BrokenProcessPool) -> ExecutionError:
        """Drop a broken ``executor`` (once) and say so as an ExecutionError."""
        with self._lock:
            if self._pool is executor:
                self._pool = None
                finalizer, self._finalizer = self._finalizer, None
                finalizer.detach()
                executor.shutdown(wait=False)
        return ExecutionError(
            "a worker of the {}-process pool died ({}); the next task starts "
            "a fresh pool".format(self.workers, exc)
        )

    def start(self) -> None:
        """Start the worker processes now rather than at the first task."""
        if self.workers > 1:
            executor = self._ensure()
            try:
                for future in [executor.submit(int) for _ in range(self.workers)]:
                    future.result()
            except BrokenProcessPool as exc:
                raise self._broken(executor, exc) from exc

    def map(self, fn, *iterables) -> List:
        """Apply ``fn`` across iterables, inline when ``workers == 1``."""
        if self.workers == 1:
            return [fn(*args) for args in zip(*iterables)]
        executor = self._ensure()
        try:
            return list(executor.map(fn, *iterables))
        except BrokenProcessPool as exc:
            raise self._broken(executor, exc) from exc

    def run_cancellable(self, fn, rows, control) -> List:
        """Run one ``fn(*row)`` task per row under an ExecutionControl.

        The cancellable twin of :meth:`map`: tasks are submitted one at a
        time so a :meth:`ExecutionControl.cancel` observed between
        submissions drops every not-yet-dispatched row, and queued
        futures whose ``cancel()`` still succeeds are dropped too.  Tasks
        already *running* are always waited for — cooperative
        cancellation never abandons in-flight work, which is what keeps
        the pool reusable (and deterministic) for the next execution.
        Each completed task feeds ``control.shard_completed()`` — the
        per-shard progress signal of the submit API.
        """
        rows = list(rows)
        control.begin(len(rows))
        results: List = []
        if not rows:
            return results  # nothing to do; never spin up the pool
        if self.workers == 1 or len(rows) == 1:
            for index, args in enumerate(rows):
                if control.cancelled:
                    control.drop(len(rows) - index)
                    return results
                results.append(fn(*args))
                control.shard_completed()
            return results
        executor = self._ensure()
        futures = []
        try:
            for args in rows:
                if control.cancelled:
                    break
                futures.append(executor.submit(fn, *args))
            dropped = len(rows) - len(futures)
            swept = False
            for future in futures:
                if control.cancelled and not swept:
                    # First observation of the cancel: sweep the whole tail
                    # at once so the executor stops pulling queued shards —
                    # a per-future check would race the workers, which keep
                    # starting queued tasks while we harvest completed ones.
                    for pending in reversed(futures):
                        pending.cancel()
                    swept = True
                if future.cancelled():
                    dropped += 1
                    continue
                results.append(future.result())
                control.shard_completed()
        except BrokenProcessPool as exc:
            raise self._broken(executor, exc) from exc
        control.drop(dropped)
        return results

    def shutdown(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
            finalizer, self._finalizer = self._finalizer, None
        if finalizer is not None:
            finalizer.detach()
        if pool is not None:
            pool.shutdown()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


#: The one-worker pool every ``workers=1`` plan shares: it runs each task
#: in the caller and never starts a process, so there is nothing to own.
IN_CALLER = WorkerPool(1)


def _run_tasks(pool: WorkerPool, fn, rows: List[tuple], control=None) -> List:
    """Run one ``fn(*row)`` task per row — the single dispatch funnel.

    Every ``dispatch_*`` path routes through here, so the cancellable
    submit transport (``control`` set) and the plain blocking transport
    cover identical rows in identical order for any configuration.  A
    single row runs in the caller on either transport: there is nothing
    to overlap it with, so a pool round trip could only add latency
    (handles resolve to the publisher's own objects there).
    """
    if control is not None:
        return pool.run_cancellable(fn, rows, control)
    if len(rows) == 1:
        return [fn(*rows[0])]
    if not rows:
        return []
    return pool.map(fn, *zip(*rows))


def dispatch_score_shards(
    trendlines: Sequence[Trendline],
    query: CompiledQuery,
    k: int,
    pool: WorkerPool,
    ranges: Sequence[Tuple[int, int]],
    algorithm: str = "segment-tree",
    enable_pushdown: bool = True,
    has_eager_checks: Optional[bool] = None,
    kernel: Optional[str] = None,
    control=None,
    positions: Optional[Sequence[int]] = None,
) -> List[ShardResult]:
    """Score the shards ``ranges`` of an object-passing collection (no merge).

    The Score operators consume the raw shard results (the MergeTopK
    operator owns merging and stats).  ``control`` (an
    :class:`~repro.engine.control.ExecutionControl`) makes the dispatch
    cancellable and progress-observable.  ``positions`` (ascending)
    restricts scoring to those candidates — one round's block of an
    indexed query — under their global positions; ``ranges``
    (:func:`score_ranges`) tile them.
    """
    if positions is None:
        positions = range(len(trendlines))
    if has_eager_checks is None:
        has_eager_checks = enable_pushdown and plan_pushdown(query).has_eager_checks
    rows = [
        ([trendlines[position] for position in positions[start:end]], 0, query, k,
         algorithm, enable_pushdown, has_eager_checks, kernel, positions[start:end])
        for start, end in ranges
    ]
    return _run_tasks(pool, score_shard, rows, control)


def dispatch_score_ranges(
    handle,
    query,
    k: int,
    pool: WorkerPool,
    ranges: Sequence[Tuple[int, int]],
    algorithm: str = "segment-tree",
    enable_pushdown: bool = True,
    has_eager_checks: Optional[bool] = None,
    kernel: Optional[str] = None,
    control=None,
    positions: Optional[Sequence[int]] = None,
) -> List[ShardResult]:
    """Shared-memory twin of :func:`dispatch_score_shards` (no merge).

    Shards are the slices ``ranges`` of ``positions`` into the
    once-published collection; the workers' ``None`` trendlines are
    replaced by the publisher's own objects here, so no trendline crosses
    the process boundary in either direction.
    """
    from repro.engine.shm import resolve_collection, resolve_query

    if positions is None:
        positions = range(len(handle))
    if has_eager_checks is None:
        compiled = resolve_query(query)
        has_eager_checks = enable_pushdown and plan_pushdown(compiled).has_eager_checks
    rows = [
        (handle, positions[start:end], query, k, algorithm, enable_pushdown,
         has_eager_checks, kernel)
        for start, end in ranges
    ]
    shards = _run_tasks(pool, score_shard_range, rows, control)
    trendlines = resolve_collection(handle)
    for shard in shards:
        shard.items = [
            (score, position, trendlines[position], result)
            for score, position, _, result in shard.items
        ]
    return shards


def dispatch_tail_scores(
    table_ref,
    params,
    normalize_y: bool,
    plan,
    query,
    indices: Sequence[int],
    pool: WorkerPool,
    algorithm: str = "segment-tree",
    kernel: Optional[str] = None,
    control=None,
) -> List[tuple]:
    """Dispatch streaming-tail re-scores of the named group indices.

    The tail's Score stage: shards are chunks of *affected* group
    indices (the groups an append's rows touched), sized by the shared
    :func:`make_range_chunks` rule and run through the single
    :func:`_run_tasks` funnel — so tail dispatches get the same
    cancellable transport and ``ExecutionControl`` stage hooks (begin /
    shard_completed / drop) as every other path.  Returns the flattened
    ``(index, key, result)`` triples of
    :func:`repro.engine.pipeline.score_tail_groups`; with ``control``
    cancelled mid-dispatch the list is partial and the caller's merge
    rendezvous must raise instead of applying it.
    """
    from repro.engine.pipeline import score_tail_groups

    indices = list(indices)
    chunks = make_range_chunks(len(indices), pool.workers, SHARD_FLOOR)
    rows = [
        (table_ref, params, normalize_y, plan, query,
         indices[start:end], algorithm, kernel)
        for start, end in chunks
    ]
    shards = _run_tasks(pool, score_tail_groups, rows, control)
    return [item for shard in shards for item in shard]


def index_bounds_range(handle, query_ref, start: int, end: int):
    """Candidate upper bounds ``[start, end)`` from a shared shape index.

    The worker half of :func:`dispatch_index_bounds`: the index and the
    compiled query both resolve against the worker-resident store, and
    the shard runs the block-batched kernel
    (:meth:`~repro.engine.shape_index.ShapeIndex.upper_bounds_range`)
    over zero-copy views of the attached block with the default
    (unbounded) floor — the same kernel as the in-process path, no
    short-circuit, so the floats cannot depend on evaluation order or on
    how candidates were sharded.
    """
    from repro.engine.shm import resolve_index, resolve_query

    index = resolve_index(handle)
    compiled = resolve_query(query_ref)
    return index.upper_bounds_range(compiled, start, end)


def dispatch_index_bounds(
    handle,
    query_ref,
    ranges: Sequence[Tuple[int, int]],
    pool: WorkerPool,
    control=None,
):
    """Shard the IndexPrune bound pass over a published shape index.

    ``ranges`` tile the candidate positions in order; returns their
    float64 bound vectors concatenated.  Workers run the same
    block-batched kernel over the same attached bucket bytes as the
    in-process path, so the returned floats are bitwise identical to
    ``index.upper_bounds(query)`` — the pruning decision cannot depend
    on the transport.
    """
    import numpy as np

    rows = [(handle, query_ref, start, end) for start, end in ranges]
    shards = _run_tasks(pool, index_bounds_range, rows, control)
    if not shards:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate(
        [np.asarray(shard, dtype=np.float64) for shard in shards]
    )
