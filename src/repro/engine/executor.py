"""The SEGMENT + SCORE stages and the top-k driver (paper §5, Problem 1).

:class:`ShapeSearchEngine` holds the session-scoped machinery — compiled
plans, caches, worker pools, shared-memory sessions — and delegates each
execution to the staged physical-operator pipeline of
:mod:`repro.engine.pipeline`: :func:`~repro.engine.pipeline.plan_pipeline`
compiles the query + table into a ``ScanTable → Extract/Group → Score →
MergeTopK`` operator chain (picking sequential or parallel
implementations per stage), and the engine runs it.  Algorithms:

* ``"dp"`` — optimal dynamic programming, O(n²k) (§6.1), driven by the
  tiled matrix kernel by default (``kernel="matrix"``; ``"loop"`` keeps
  the byte-identical reference kernel for benchmarking);
* ``"segment-tree"`` — pattern-aware, O(nk⁴) (§6.2), the default;
* ``"greedy"`` — local-search baseline (§9).

The brute-force layout enumerator the test suites check these against
is ``tests/oracles/exhaustive.py``, not an engine algorithm.

Scaling knobs (beyond the paper): ``workers=`` is the whole parallel
plan — ``1`` scores in the caller, ``N > 1`` shards candidates across a
process :class:`~repro.engine.parallel.WorkerPool` over shared memory
and merges per-shard top-k heaps; ``cache=`` plugs in an
:class:`~repro.engine.cache.EngineCache` so repeated interactive queries
skip EXTRACT/GROUP and query compilation entirely.  Every configuration
uses the total order *(score desc, candidate position asc)*, so results
are identical for any worker count.

The serving-era entry points are :meth:`ShapeSearchEngine.run` /
:meth:`run_many` (blocking, returning
:class:`~repro.results.ResultSet`) and :meth:`submit` /
:meth:`submit_many` (non-blocking, returning
:class:`~repro.results.SearchFuture` handles driven by a small
dispatcher thread pool, with cooperative cancellation and per-shard
progress).  :meth:`ShapeSearchEngine.rank` scores caller-held
trendlines.
"""

from __future__ import annotations

import os
import threading
import warnings
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.algebra.nodes import Node
from repro.data.table import Table, attached_state
from repro.data.visual_params import VisualParams
from repro.engine.cache import (
    EngineCache,
    canonical_query_text,
    coerce_cache,
    plan_fingerprint,
    table_fingerprint,
    trendline_cache_key,
)
from repro.engine.chains import CompiledQuery, compile_query
from repro.engine.control import ExecutionControl
from repro.engine.dynamic import QueryResult
from repro.engine.pipeline import generate_trendlines
# Imported with the engine, not on first use: first imported while the
# server was answering requests, it raised served_dashboard's peak RSS by
# about 1 MiB.
from repro.engine.shm import ShmSession, release_evicted, worker_init
from repro.engine.trendline import Trendline
from repro.errors import ExecutionError, SearchCancelled
from repro.results import ResultSet, SearchFuture

#: Supported segmentation algorithms (dispatch lives in
#: :func:`repro.engine.parallel.solve_many`, the single funnel shared by
#: every Score path).
ALGORITHMS = ("dp", "segment-tree", "greedy")

#: Supported scoring precisions (see the ``precision`` option).
PRECISIONS = ("float64", "float32")

#: Engine-local shape-index memo size (rank paths, keyed by collection
#: identity; the table-attached store covers the table paths).
_MAX_ENGINE_INDEXES = 8

#: Artifact stores already warned about (abspath -> True): an unwritable
#: store means every fresh process silently repays the index build, so
#: the first failed save warns loudly — once, not per query.
_WARNED_STORES: dict = {}


def _warn_unwritable_store(store: str, exc: OSError) -> None:
    resolved = os.path.abspath(store)
    if resolved in _WARNED_STORES:
        return
    _WARNED_STORES[resolved] = True
    warnings.warn(
        "artifact store {!r} is not writable ({}); shape indexes will be "
        "rebuilt on every process start until the store is fixed "
        "(ExecutionStats.index_reason == 'store-unwritable')".format(store, exc),
        RuntimeWarning,
        stacklevel=3,
    )

#: Driver threads behind the non-blocking submit paths.  Each driver runs
#: one pipeline execution end to end; shard work still fans out on the
#: engine's worker pools, so two drivers already overlap submissions.
_DISPATCH_THREADS = 2


@dataclass
class Match:
    """One ranked visualization: who, how well, and where each pattern fit."""

    key: object
    score: float
    result: QueryResult
    trendline: Trendline

    @property
    def placements(self):
        """Per-unit (segment index, start bin, end bin, score, slope)."""
        return self.result.solution.placements

    def __repr__(self):
        return "Match({!r}, score={:.3f})".format(self.key, self.score)


@dataclass
class ExecutionStats:
    """What the engine did for one query (inspected by benchmarks).

    Stats are built per call and ride on the returned
    :class:`~repro.results.ResultSet` (``results.stats``), so concurrent
    calls on one engine never observe each other's counters.
    """

    candidates: int = 0
    extracted: int = 0
    eager_discarded: int = 0
    scored: int = 0
    shards: int = 0
    trendline_cache_hit: bool = False
    plan_cache_hit: bool = False
    #: Which Extract/Group ran: ``"parent"`` (materialized in the
    #: calling process) or ``"tail"`` (a streaming refresh that
    #: re-scored only the groups an append touched).
    generation: str = "parent"
    #: Rows the streaming tail consumed in this refresh (0 elsewhere):
    #: the delta the incremental work was proportional to.
    appended_rows: int = 0
    #: Candidates the IndexPrune stage saw / the indexed Score rounds
    #: never solved — their bound failed the rising top-k floor (both 0
    #: when the stage did not run — index disabled, query unbounded, or
    #: the collection no larger than the first round).
    index_candidates: int = 0
    index_pruned: int = 0
    #: Where IndexPrune's index came from: ``"memory"`` (table-attached
    #: or cache hit), ``"disk"`` (memory-mapped artifact store), or
    #: ``"built"`` (fresh build / lineage extension); None when the
    #: stage did not bound anything this call.
    index_source: Optional[str] = None
    #: How the bound pass ran: ``"dispatched"`` (sharded to pool workers
    #: over the published index) or ``"inline"``; None when the stage
    #: did not bound anything this call.
    index_bounds: Optional[str] = None
    #: Why the index had to be built when ``index_source == "built"``:
    #: ``"no-store"`` (no artifact store configured), ``"store-miss"``
    #: (store configured but held no usable artifact for this key —
    #: first run, stale fingerprint, or corrupt/unreadable entry),
    #: ``"store-unwritable"`` (built *and* the save back to the store
    #: failed, so the next process will rebuild again; also warned once
    #: per store), or ``"rank-path"`` (caller-held collection, no table
    #: to key a persistent artifact on).  None when the index came from
    #: memory or disk.
    index_reason: Optional[str] = None


class ShapeSearchEngine:
    """Back-end execution engine: Problem 1's ``top-k argmax SF(Q, Vi)``."""

    def __init__(
        self,
        algorithm: str = "segment-tree",
        enable_pushdown: bool = True,
        workers: int = 1,
        cache=None,
        quantifier_threshold: Optional[float] = None,
        kernel: str = "matrix",
        index: bool = False,
        precision: str = "float64",
        store: Optional[str] = None,
    ):
        if algorithm not in ALGORITHMS:
            raise ExecutionError(
                "unknown algorithm {!r}; choose from {}".format(algorithm, ALGORITHMS)
            )
        from repro.engine.dynamic import KERNELS

        if kernel not in KERNELS:
            raise ExecutionError(
                "unknown kernel {!r}; choose from {}".format(kernel, KERNELS)
            )
        if precision not in PRECISIONS:
            raise ExecutionError(
                "unknown precision {!r}; choose from {}".format(precision, PRECISIONS)
            )
        if precision == "float32" and kernel == "loop":
            raise ExecutionError(
                "precision='float32' cannot be combined with kernel='loop': the "
                "loop kernel is the byte-identity oracle and float32 scoring is "
                "approximate by construction; use kernel='matrix' or keep "
                "precision='float64'"
            )
        self.algorithm = algorithm
        #: DP transition kernel for ``algorithm="dp"``: ``"matrix"`` (the
        #: tiled matrix kernel, default) or ``"loop"`` (the retained
        #: per-end-bin reference kernel).  Byte-identical results either
        #: way — the loop kernel exists as the oracle and for
        #: benchmarking the matrix kernel against.
        self.kernel = kernel
        self.enable_pushdown = enable_pushdown
        #: ``1`` scores in the caller; ``N > 1`` on an N-process pool
        #: over shared memory (repro.engine.shm).  Results are
        #: byte-identical either way.
        self.workers = self._check_workers(workers)
        #: Minimum per-run pattern score for a quantifier occurrence
        #: (paper §5.2: the zero default "can be overridden by users");
        #: None keeps scoring.QUANTIFIER_POSITIVE_THRESHOLD (0.3).
        self.quantifier_threshold = quantifier_threshold
        #: Opt-in shape index (engine/shape_index.py): prune candidates
        #: against the running top-k floor before the DP runs.  Exact —
        #: results stay byte-identical to ``index=False`` for every
        #: kernel × worker count; queries the index cannot bound fall
        #: back to the full scan (no IndexPrune plan stage).
        self.index = bool(index)
        #: Scoring dtype: ``"float64"`` (exact, the default) or the
        #: opt-in approximate ``"float32"`` throughput mode (see
        #: :class:`~repro.engine.pipeline.PrecisionCast`).
        self.precision = precision
        #: Artifact store directory (repro.engine.artifacts): shape
        #: indexes persist here in the packed memmap form and survive
        #: process restarts.  Defaults to ``REPRO_ARTIFACT_DIR`` when
        #: set; None disables the disk tier.
        if store is None:
            store = os.environ.get("REPRO_ARTIFACT_DIR") or None
        self.store: Optional[str] = str(store) if store else None
        self.cache: Optional[EngineCache] = coerce_cache(cache)
        #: Rank-path shape indexes: id(collection) -> (id witness,
        #: collection ref, ShapeIndex).  The collection is held strongly
        #: so ids cannot recycle under a live entry.
        self._indexes: "OrderedDict[int, tuple]" = OrderedDict()
        self._pools: dict = {}
        self._pool_lock = threading.Lock()
        #: One-slot box so the lazily created ShmSession is reachable from
        #: close() and the finalizer without either referencing ``self``.
        self._shm_box: list = [None]
        #: Same one-slot-box pattern for the lazily created dispatcher
        #: thread pool that drives the non-blocking submit paths.
        self._dispatch_box: list = [None]
        if self.cache is not None:
            self.cache.trendlines.add_evict_listener(release_evicted)
        #: Safety net: releases pools and shared memory when the engine is
        #: garbage-collected or the interpreter exits without close().
        self._finalizer = weakref.finalize(
            self, _release_engine_resources, self._pools, self._pool_lock,
            self._shm_box, self._dispatch_box,
        )

    @staticmethod
    def _check_workers(workers) -> int:
        if workers is None:
            from repro.engine.parallel import default_workers

            return default_workers()
        # As _check_k: no coercion, so 2.7, True and "3" are refused
        # rather than truncated to a pool size.
        if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
            raise ExecutionError(
                "workers must be an int >= 1, got {!r}".format(workers)
            )
        return workers

    @staticmethod
    def _check_k(k) -> int:
        # The serving protocol's rule (protocol.search_k): bool is an int
        # subclass, so it is refused explicitly.
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise ExecutionError("k must be an int >= 1, got {!r}".format(k))
        return k

    # -- worker pool -------------------------------------------------------
    def _resolve_pool(self, workers: Optional[int]):
        """A persistent pool for the requested worker count.

        One worker is the shared in-caller pool, which owns no process.
        Larger pools are memoized per count so repeated per-call ``workers=``
        overrides (interactive sessions flipping between sequential and
        parallel) reuse warm pools instead of spawning and tearing one
        down per query — which would dominate interactive latency.  A
        pool starts its processes here, when the first ``workers>1``
        stage resolves it, so the fork is paid once up front rather than
        by whichever later query first cuts two shards.
        """
        from repro.engine.parallel import IN_CALLER, WorkerPool

        count = self.workers if workers is None else self._check_workers(workers)
        if count == 1:
            return IN_CALLER
        with self._pool_lock:
            pool = self._pools.get(count)
            if pool is None:
                pool = WorkerPool(count, initializer=worker_init)
                pool.start()
                self._pools[count] = pool
            return pool

    def _shm_session(self):
        """The session-scoped shared-memory registry (created on first use)."""
        with self._pool_lock:
            if self._shm_box[0] is None or self._shm_box[0].closed:
                self._shm_box[0] = ShmSession()
            return self._shm_box[0]

    def _dispatcher(self):
        """The driver thread pool behind :meth:`submit` (created lazily).

        Drivers run whole pipeline executions; the *shard* work they
        dispatch still lands on the engine's regular worker pools, so a
        couple of driver threads are plenty — extra submissions queue
        and overlap at the shard level, not the driver level.
        """
        from concurrent.futures import ThreadPoolExecutor

        with self._pool_lock:
            if self._dispatch_box[0] is None:
                self._dispatch_box[0] = ThreadPoolExecutor(
                    max_workers=_DISPATCH_THREADS,
                    thread_name_prefix="shapesearch-dispatch",
                )
            return self._dispatch_box[0]

    def close(self) -> None:
        """Release dispatcher threads, worker pools and shm segments.

        Waits for in-flight submitted searches (queued, not-yet-started
        ones are resolved as cancelled).  Idempotent, and also runs via
        ``weakref.finalize``/``atexit`` when an engine is dropped or the
        interpreter exits without an explicit close — pools and shm
        segments never outlive their owner.
        """
        _release_engine_resources(
            self._pools, self._pool_lock, self._shm_box, self._dispatch_box
        )

    def __enter__(self) -> "ShapeSearchEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- full pipeline (the serving-era core API) ---------------------------
    def run(
        self,
        table: Table,
        params: VisualParams,
        query: Union[Node, CompiledQuery],
        k: int = 10,
        workers: Optional[int] = None,
        control: Optional[ExecutionControl] = None,
        memo: Optional[dict] = None,
    ) -> ResultSet:
        """EXTRACT → GROUP → SEGMENT → SCORE → top-k, as a :class:`ResultSet`.

        The blocking core of every table path: compiles the query
        (through the plan cache), plans the staged operator pipeline and
        runs it.  Returns a :class:`~repro.results.ResultSet` carrying
        this call's private stats and the rendered physical plan, so
        concurrent calls on one engine never observe each other.
        ``control`` threads the cancellation/progress hooks of the submit
        paths through the pipeline; ``memo`` is the batch generation memo
        shared across a :meth:`run_many` call.
        """
        self._check_k(k)
        stats = ExecutionStats()
        compiled = self._compile(query, stats)
        matches, plan = self._run_pipeline(
            compiled, k, stats, table=table, params=params, workers=workers,
            memo=memo, control=control,
        )
        return ResultSet(matches, stats=stats, plan=plan)

    def run_many(
        self,
        table: Table,
        params: VisualParams,
        queries: Sequence[Union[Node, CompiledQuery]],
        k: int = 10,
        workers: Optional[int] = None,
    ) -> List[ResultSet]:
        """Batch execution: amortize compilation and EXTRACT/GROUP.

        Every query is compiled up front (through the plan cache), so an
        invalid query anywhere in the batch rejects it *before* any
        scoring work runs.  Parent-side trendline generation then runs
        once per distinct ``(normalize_y, push-down effect)``
        combination — for the common all-fuzzy batch that is a single
        EXTRACT/GROUP pass shared by every query (a query that reused
        the batch's earlier generation work reports
        ``trendline_cache_hit=True`` in its ResultSet's stats).
        """
        compiled_list = [self._compile(query) for query in queries]
        memo: dict = {}
        return [
            self.run(table, params, compiled, k=k, workers=workers, memo=memo)
            for compiled in compiled_list
        ]

    # -- non-blocking submission -------------------------------------------
    def submit(
        self,
        table: Table,
        params: VisualParams,
        query: Union[Node, CompiledQuery],
        k: int = 10,
        workers: Optional[int] = None,
        progress=None,
    ) -> SearchFuture:
        """Dispatch one execution without blocking the caller.

        The returned :class:`~repro.results.SearchFuture` resolves to
        the same :class:`ResultSet` a :meth:`run` call would produce —
        byte-identical results, same plan, same stats.  ``progress`` is
        called as ``progress(completed_shards, total_shards)`` from the
        driver thread as the Score stage advances;
        :meth:`SearchFuture.cancel` drops un-dispatched shards
        cooperatively (see :mod:`repro.engine.control`).
        """
        self._check_k(k)
        if workers is not None:
            self._check_workers(workers)
        control = ExecutionControl(progress=progress)
        future = SearchFuture(control)

        def drive():
            _drive_one(
                self, future, control, table, params, query, k, workers, None
            )

        task = self._dispatcher().submit(drive)
        task.add_done_callback(_abandonment_guard(future))
        return future

    def submit_many(
        self,
        table: Table,
        params: VisualParams,
        queries: Sequence[Union[Node, CompiledQuery]],
        k: int = 10,
        workers: Optional[int] = None,
        progress=None,
    ) -> List[SearchFuture]:
        """Dispatch a batch without blocking: one future per query.

        The batch runs on a single driver so generation work is
        amortized exactly as in :meth:`run_many` (shared memo); futures
        resolve in submission order.
        Cancelling one future skips (or cooperatively stops) only that
        query — the rest of the batch proceeds.  ``progress`` is called
        as ``progress(query_index, completed_shards, total_shards)``.
        """
        self._check_k(k)
        if workers is not None:
            self._check_workers(workers)
        jobs = []
        for index, query in enumerate(queries):
            if progress is not None:
                def query_progress(completed, total, _index=index):
                    progress(_index, completed, total)
            else:
                query_progress = None
            control = ExecutionControl(progress=query_progress)
            jobs.append((query, SearchFuture(control), control))

        def drive():
            memo: dict = {}
            for query, future, control in jobs:
                _drive_one(
                    self, future, control, table, params, query, k, workers, memo
                )

        task = self._dispatcher().submit(drive)
        for _query, future, _control in jobs:
            task.add_done_callback(_abandonment_guard(future))
        return [future for _query, future, _control in jobs]

    # -- core ranking --------------------------------------------------------
    def rank(
        self,
        trendlines: Sequence[Trendline],
        query: Union[Node, CompiledQuery],
        k: int = 10,
        workers: Optional[int] = None,
    ) -> ResultSet:
        """Rank pre-built trendlines against a query (stats on the ResultSet)."""
        self._check_k(k)
        stats = ExecutionStats(extracted=len(trendlines))
        compiled = self._compile(query, stats)
        matches, plan = self._run_pipeline(
            compiled, k, stats, trendlines=trendlines, workers=workers
        )
        return ResultSet(matches, stats=stats, plan=plan)

    def _run_pipeline(
        self,
        compiled: CompiledQuery,
        k: int,
        stats: ExecutionStats,
        table: Optional[Table] = None,
        params: Optional[VisualParams] = None,
        trendlines: Optional[Sequence[Trendline]] = None,
        workers: Optional[int] = None,
        memo: Optional[dict] = None,
        control: Optional[ExecutionControl] = None,
    ) -> Tuple[List[Match], object]:
        """Plan and run the staged operator pipeline for one execution.

        All branching — sequential vs shared-memory Score, index — lives
        in :func:`repro.engine.pipeline.plan_pipeline`;
        the engine only supplies the session-scoped services (pools, shm
        session, caches) through the :class:`PipelineContext`.  Returns
        ``(matches, rendered plan)`` so callers can build a ResultSet
        that knows which chain actually ran — the *text*, not the
        operator chain, which pins the table / candidate collection for
        as long as it is referenced.
        """
        from repro.engine.pipeline import PipelineContext, plan_pipeline

        pipeline = plan_pipeline(
            self, compiled, k, table=table, params=params,
            trendlines=trendlines, workers=workers, memo=memo,
        )
        matches = pipeline.run(
            PipelineContext(engine=self, stats=stats, control=control)
        )
        return matches, pipeline.explain()

    def explain_plan(
        self,
        table: Table,
        params: VisualParams,
        query: Union[Node, CompiledQuery],
        k: int = 10,
        workers: Optional[int] = None,
    ) -> str:
        """The physical operator chain one :meth:`run` call would run.

        Purely a planning call — nothing is generated, published or
        scored — so it is cheap enough for interactive inspection.
        """
        from repro.engine.pipeline import plan_pipeline

        self._check_k(k)
        compiled = self._compile(query)
        return plan_pipeline(
            self, compiled, k, table=table, params=params, workers=workers
        ).explain()

    def compile(self, query: Union[Node, CompiledQuery]) -> CompiledQuery:
        """Compile a ShapeQuery AST through the plan cache (idempotent).

        The prepare seam: :meth:`ShapeSearch.prepare` compiles once here
        and binds the result, so every subsequent ``run``/``submit`` on
        the prepared query skips parse + compile by construction.
        """
        return self._compile(query)

    # -- internals --------------------------------------------------------------
    def _compile(
        self, query: Union[Node, CompiledQuery], stats: Optional[ExecutionStats] = None
    ) -> CompiledQuery:
        if isinstance(query, CompiledQuery):
            return query
        if isinstance(query, Node):
            if self.cache is not None:
                # The threshold is baked into compiled QuantifierUnits, so
                # engines with different overrides must not share plans.
                key = (canonical_query_text(query), self.quantifier_threshold)
                compiled = self.cache.plans.get(key)
                if compiled is not None:
                    if stats is not None:
                        stats.plan_cache_hit = True
                    return compiled
                compiled = compile_query(
                    query, quantifier_threshold=self.quantifier_threshold
                )
                self.cache.plans.put(key, compiled)
                return compiled
            return compile_query(query, quantifier_threshold=self.quantifier_threshold)
        raise ExecutionError("query must be a ShapeQuery AST or CompiledQuery")

    def _trendlines(
        self,
        table: Table,
        params: VisualParams,
        normalize_y: bool,
        plan,
        stats: ExecutionStats,
    ) -> Sequence[Trendline]:
        """EXTRACT ∘ GROUP, through the trendline cache when configured."""
        if self.cache is None:
            return generate_trendlines(table, params, normalize_y, plan)
        key = trendline_cache_key(table, params, normalize_y, plan_fingerprint(plan))
        trendlines = self.cache.trendlines.get(key)
        if trendlines is not None:
            stats.trendline_cache_hit = True
            return trendlines
        trendlines = generate_trendlines(table, params, normalize_y, plan)
        self.cache.trendlines.put(key, trendlines)
        return trendlines

    #: Per-table attached shape-index entries kept per store (small: one
    #: per distinct (params, normalize_y, plan, precision) combination).
    _MAX_TABLE_INDEXES = 4

    def _shape_index_for(self, trendlines, table=None, index_key=None):
        """The persistent shape index of one candidate collection.

        Returns ``(index, source, reason)`` where ``source`` names the
        tier that supplied it — ``"memory"``, ``"disk"`` or ``"built"``
        — surfaced through ``ExecutionStats.index_source`` and the
        rendered plan, and ``reason`` says *why* a build was necessary
        when ``source == "built"`` (``ExecutionStats.index_reason``;
        None for the other tiers).  A configured store that rejects the
        save-back (unwritable directory, a file squatting on the path,
        disk full) additionally warns **once per store** — silently
        rebuilding on every process start is the failure mode this
        surfaces.  Storage tiers, in lookup order:

        * **Table-attached** (table paths): the index lives on the
          immutable ``Table`` itself, keyed by the generation inputs
          (params, normalize_y, push-down plan, precision) — it survives
          engine restarts and cache evictions, and ``append_rows``
          lineage lets a new table *extend* its base's index instead of
          rebuilding (:meth:`~repro.engine.shape_index.ShapeIndex.extended`:
          only changed/new trendlines are re-summarized, bitwise equal
          to a fresh build).
        * **EngineCache.indexes** (when a cache is configured): content
          fingerprint keyed, shared across engines like the trendline
          cache.
        * **Artifact store** (when ``store`` is configured): the packed
          form memory-mapped from disk (repro.engine.artifacts),
          verified against the table's content fingerprint — the tier
          that survives process restarts.  Built/extended indexes are
          saved back here, so an append persists its delta-extended
          index for the next process.
        * **Engine-local memo** (rank paths over caller-held
          collections): keyed by collection identity with an id witness.

        The index is a pure function of the trendlines' prefix bits, so
        every tier returns bitwise-identical buckets.
        """
        from repro.engine.shape_index import ShapeIndex

        if table is not None and index_key is not None:
            state = attached_state(table, "_shape_index_state", dict)
            index = state.get(index_key)
            if index is not None and len(index) == len(trendlines):
                return index, "memory", None
            cache_key = None
            if self.cache is not None:
                cache_key = (table_fingerprint(table),) + index_key
                index = self.cache.indexes.get(cache_key)
                if index is not None and len(index) == len(trendlines):
                    state[index_key] = index
                    return index, "memory", None
            source = "built"
            reason = "no-store" if self.store is None else "store-miss"
            index = None
            if self.store is not None:
                from repro.engine.artifacts import load_index

                index = load_index(
                    self.store, index_key, table_fingerprint(table)
                )
                if index is not None and len(index) == len(trendlines):
                    source, reason = "disk", None
                else:
                    index = None
            if index is None:
                base_state = getattr(table, "_shape_index_base", None)
                base_index = base_state.get(index_key) if base_state else None
                if base_index is not None:
                    index = base_index.extended(trendlines)
                else:
                    index = ShapeIndex.build(trendlines)
            state[index_key] = index
            while len(state) > self._MAX_TABLE_INDEXES:
                state.pop(next(iter(state)))
            if cache_key is not None:
                self.cache.indexes.put(cache_key, index)
            if self.store is not None and source == "built":
                from repro.engine.artifacts import save_index

                try:
                    save_index(
                        self.store, index_key, index, table_fingerprint(table)
                    )
                except OSError as exc:
                    # An unwritable store never fails a query — but it
                    # does mean every fresh process silently repays the
                    # build, so say so (once per store) and record why.
                    reason = "store-unwritable"
                    _warn_unwritable_store(self.store, exc)
            return index, source, reason

        key = id(trendlines)
        witness = tuple(id(trendline) for trendline in trendlines)
        entry = self._indexes.get(key)
        if entry is not None and entry[0] == witness:
            self._indexes.move_to_end(key)
            return entry[2], "memory", None
        index = ShapeIndex.build(trendlines)
        self._indexes[key] = (witness, trendlines, index)
        self._indexes.move_to_end(key)
        while len(self._indexes) > _MAX_ENGINE_INDEXES:
            self._indexes.popitem(last=False)
        return index, "built", "rank-path"


def _release_engine_resources(
    pools: dict, lock: threading.Lock, shm_box: list, dispatch_box: list
) -> None:
    """Shut down an engine's dispatcher, pools and shm session (idempotent).

    Module-level and closed over the engine's *mutable holders* rather
    than the engine itself, so the ``weakref.finalize`` registered in
    ``__init__`` can run after the engine is collected — and a manual
    ``close()`` followed by more work still gets cleaned up at exit.
    The dispatcher drains first (its drivers use the pools and shm
    session being torn down next); queued-but-unstarted drivers are
    cancelled, and their SearchFutures resolve as cancelled through the
    abandonment guard.
    """
    with lock:
        dispatcher, dispatch_box[0] = dispatch_box[0], None
    if dispatcher is not None:
        dispatcher.shutdown(wait=True, cancel_futures=True)
    with lock:
        pools_now, session = list(pools.values()), shm_box[0]
        pools.clear()
        shm_box[0] = None
    for pool in pools_now:
        pool.shutdown()
    if session is not None:
        session.close()


def _drive_one(
    engine, future, control, table, params, query, k, workers, memo
) -> None:
    """Run one submitted execution on a driver thread, resolving its future.

    Exceptions — including :class:`SearchCancelled` from the MergeTopK
    rendezvous — land on the future instead of the driver thread, so one
    failed or cancelled query never takes down the driver (or, on the
    batched path, the rest of its batch).
    """
    if not future._start():
        future._finish(
            exception=SearchCancelled("search cancelled before dispatch")
        )
        return
    try:
        result = engine.run(
            table, params, query, k=k, workers=workers, control=control, memo=memo
        )
    except BaseException as exc:  # resolve, never unwind the driver
        future._finish(exception=exc)
    else:
        future._finish(result=result)


def _abandonment_guard(future):
    """Done-callback for a driver task: resolve futures the driver never ran.

    ``close()`` cancels queued driver tasks; without this, a
    SearchFuture whose driver was cancelled would wait forever.
    ``_finish`` is idempotent, so futures the driver already resolved
    ignore the guard.
    """

    def callback(task):
        if task.cancelled():
            future._finish(
                exception=SearchCancelled("engine closed before dispatch")
            )

    return callback


def _to_matches(items) -> List[Match]:
    """Present ranked ``(score, position, trendline, result)`` items as
    Matches in (score desc, str(key) asc) order.

    Every engine path — sequential, sharded, indexed, the streaming
    tail — builds its final Match list here, so the presentation
    tie-break cannot drift between paths.  (The *selection* order lives
    upstream and is the same everywhere: (score desc, position asc) in
    the shard heaps, MergeTopK and the tail's IncrementalMerge.)
    """
    ranked = sorted(items, key=lambda item: (-item[0], str(item[2].key)))
    return [
        Match(key=trendline.key, score=score, result=result, trendline=trendline)
        for score, _, trendline, result in ranked
    ]
