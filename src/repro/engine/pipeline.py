"""The physical query pipeline: EXTRACT/GROUP operators and the staged plan.

Two layers live here:

* The **EXTRACT and GROUP operators** of paper §5.3 (Figure 5).  EXTRACT
  selects and aggregates records by the visual parameters (z, x, y,
  filters, aggregation) into per-z point sets, sorted on x.  GROUP turns
  each point set into a :class:`~repro.engine.trendline.Trendline`:
  z-score normalization (when the query has no raw-y constraints),
  optional binning by width ``b``, and the per-bin summarized statistics
  of Theorem 5.1.  The push-down hooks of §5.4 thread through both.
  Both run as one block kernel over the whole table
  (:mod:`repro.engine.collection`); this module holds its entry points —
  all groups, a worker's group-index range, the groups an append touched.

* The **staged physical-operator pipeline** of §7's execution engine: a
  small planner (:func:`plan_pipeline`) compiles one query execution
  into a DAG of operators —

      ScanTable → Extract/Group → Score → MergeTopK

  — each with a sequential and a parallel implementation.  The parallel
  Extract/Group implementation runs *inside workers* against the
  shared-memory-published table: shards are group-key index ranges,
  workers generate their own trendlines (cached in a worker-resident
  store keyed by table fingerprint + VisualParams) and score them in
  place, so no trendline ever crosses a process boundary.  Every
  implementation preserves the engine's total order *(score desc,
  position asc)*, so results are byte-identical across operators,
  backends and worker counts.
"""

from __future__ import annotations

import contextlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data.table import Table, attached_state
from repro.data.visual_params import VisualParams
from repro.engine.cache import LRUCache, plan_fingerprint
from repro.engine.collection import (
    Collection,
    build_collection,
    count_groups,
    require_columns,
)
from repro.engine.pushdown import PushdownPlan, plan_pushdown
from repro.engine.shape_index import (
    MIN_SEED_CANDIDATES,
    BoundFrontier,
    TopKFloor,
    index_supports,
)
from repro.engine.trendline import Trendline, cast_trendline

# ---------------------------------------------------------------------------
# EXTRACT / GROUP (logical operators, paper §5.3)
# ---------------------------------------------------------------------------


def _required_columns(table: Table, params: VisualParams):
    """The column subset generation reads: z/x/y plus filter columns.

    Worker-side generation publishes only these into shared memory —
    unrelated columns are neither copied nor required to be picklable.
    Returns None when the query touches every column (full export).
    """
    needed = {params.z, params.x, params.y}
    needed.update(item.column for item in params.filters)
    subset = tuple(name for name in table.column_names if name in needed)
    return None if len(subset) == len(table.column_names) else subset


def generate_trendlines(
    table: Table,
    params: VisualParams,
    normalize_y: bool = True,
    plan: Optional[PushdownPlan] = None,
) -> Collection:
    """EXTRACT ∘ GROUP: the candidate visualizations ``gen(R)``.

    One :func:`~repro.engine.collection.build_collection` pass: EXTRACT
    selects records by the visual parameters, sorts each z value's points
    on x and collapses duplicate x values with the configured aggregate
    (the paper's Real-Estate case); GROUP bins, normalizes and summarizes
    them.  The returned :class:`~repro.engine.collection.Collection` is a
    sequence of :class:`Trendline` views in group order.
    """
    return build_collection(table, params, normalize_y, plan)


def query_constrains_y(query) -> bool:
    """z-score normalization is skipped when the query pins raw y values."""
    return any(
        cu.unit.location.y_start is not None or cu.unit.location.y_end is not None
        for chain in query.chains
        for cu in chain.units
    )


# ---------------------------------------------------------------------------
# Worker-side generation (the parallel Extract/Group implementation)
# ---------------------------------------------------------------------------

#: Generated ranges a table keeps: (params, normalize_y, plan effect,
#: range) -> [(index, Trendline)].
_MAX_RANGES = 64


def generate_range(
    table: Table,
    params: VisualParams,
    normalize_y: bool,
    plan: Optional[PushdownPlan],
    start: int,
    end: int,
) -> List[Tuple[int, Trendline]]:
    """Worker-side EXTRACT ∘ GROUP over group indices ``[start, end)``.

    Group indices follow the first-seen order of the filtered z values —
    exactly the order :func:`generate_trendlines` enumerates — which is
    what makes index ranges a faithful sharding of parent-side
    generation.  Returns ``(group index, trendline)`` pairs — groups
    dropped by extraction (too few points, push-down skips) or grouping
    (degenerate series) leave gaps, preserving the global generation
    order across shards.  Results are memoized on the (worker-resident)
    table keyed by VisualParams + normalization + push-down effect +
    range; range boundaries are deterministic (``make_range_chunks``),
    so repeat queries that land the same range on the same worker skip
    EXTRACT/GROUP entirely.
    """
    # The memo hangs off the table instance itself rather than a module
    # global, so it lives exactly as long as the table: dropping the
    # table — or a worker store evicting its reattached copy — frees
    # every generated range with it, with no engine-lifecycle hook.
    ranges = attached_state(table, "_generation_state", lambda: LRUCache(_MAX_RANGES))
    cache_key = (params, bool(normalize_y), plan_fingerprint(plan), start, end)
    pairs = ranges.get(cache_key)
    if pairs is None:
        collection = build_collection(table, params, normalize_y, plan, range(start, end))
        pairs = list(zip(collection.groups.tolist(), collection))
        ranges.put(cache_key, pairs)
    return pairs


def generate_score_shard(
    table_ref,
    params: VisualParams,
    normalize_y: bool,
    plan: Optional[PushdownPlan],
    query,
    start: int,
    end: int,
    k: int,
    algorithm: str = "segment-tree",
    enable_pushdown: bool = True,
    has_eager_checks: Optional[bool] = None,
    kernel: Optional[str] = None,
):
    """Fused Extract/Group → Score over one group-index range, in a worker.

    ``table_ref`` is either a :class:`Table` (thread backend — workers
    share the parent's memory) or a
    :class:`~repro.engine.shm.TableHandle` (process backend — resolved
    against the worker-resident store, attaching the shared segment on
    first use); ``query`` a compiled query or
    :class:`~repro.engine.shm.QueryHandle`.  The task payload is a
    manifest, the visual parameters and two integers — no trendline ever
    crosses the process boundary; only the shard's top-k results travel
    back.

    Positions are ``start`` plus the shard-local generation offset.
    Gaps from dropped groups compact within the shard, but every
    position in this shard stays strictly below every position of any
    later range, so the global total order *(score desc, position asc)*
    ranks candidates exactly as parent-side generation would — which is
    what keeps worker-side results byte-identical.
    """
    from repro.engine.parallel import score_shard
    from repro.engine.shm import resolve_query, resolve_table

    table = table_ref if isinstance(table_ref, Table) else resolve_table(table_ref)
    compiled = resolve_query(query)
    pairs = generate_range(table, params, normalize_y, plan, start, end)
    shard = score_shard(
        [trendline for _index, trendline in pairs],
        start,
        compiled,
        k,
        algorithm=algorithm,
        enable_pushdown=enable_pushdown,
        has_eager_checks=has_eager_checks,
        kernel=kernel,
    )
    shard.generated = len(pairs)
    return shard


# ---------------------------------------------------------------------------
# Streaming tail: re-score only the groups an append touched
# ---------------------------------------------------------------------------

#: Worker-resident DP state for the suffix re-solve, keyed by
#: ``(id(compiled), group key)``.  Entries are ``(compiled, state,
#: nbytes)``: they hold the compiled query object strongly (so the id
#: cannot be recycled while the entry lives) and are identity-verified
#: on every hit.  Bounded twice — by entry count and, because a "group"
#: can be a year-long series whose retained tables are O(k·n) floats, by
#: total retained bytes (size-based LRU eviction, budget adjustable via
#: :func:`set_tail_state_budget`, observable via
#: :func:`tail_state_stats`).
_TAIL_STATES: "OrderedDict[tuple, tuple]" = OrderedDict()
_TAIL_STATES_LOCK = threading.Lock()
_MAX_TAIL_STATES = 128
_DEFAULT_TAIL_STATE_BUDGET = 64 * 1024 * 1024
_tail_state_budget = _DEFAULT_TAIL_STATE_BUDGET
_tail_state_bytes = 0
_tail_state_evictions = 0


def _tail_state_pop_locked(cache_key) -> None:
    global _tail_state_bytes
    entry = _TAIL_STATES.pop(cache_key, None)
    if entry is not None:
        _tail_state_bytes -= entry[2]


def _tail_state_evict_locked() -> None:
    global _tail_state_bytes, _tail_state_evictions
    while _TAIL_STATES and (
        len(_TAIL_STATES) > _MAX_TAIL_STATES or _tail_state_bytes > _tail_state_budget
    ):
        _, entry = _TAIL_STATES.popitem(last=False)
        _tail_state_bytes -= entry[2]
        _tail_state_evictions += 1
    if not _TAIL_STATES:
        # Self-heal against external clears (tests reach into the dict):
        # an empty store holds zero bytes by definition.
        _tail_state_bytes = 0


def set_tail_state_budget(nbytes: int) -> None:
    """Cap the bytes of retained streaming DP state (process-wide).

    Evicts least-recently-used states immediately if the new budget is
    already exceeded.  Eviction is purely a work-skip: an evicted group's
    next refresh solves cold, byte-identical to the warm path.
    """
    global _tail_state_budget
    nbytes = int(nbytes)
    if nbytes < 0:
        raise ValueError("tail state budget must be >= 0 bytes")
    with _TAIL_STATES_LOCK:
        _tail_state_budget = nbytes
        _tail_state_evict_locked()


def tail_state_stats() -> dict:
    """Observability hook: retained-state entries/bytes/budget/evictions."""
    with _TAIL_STATES_LOCK:
        return {
            "entries": len(_TAIL_STATES),
            "bytes": _tail_state_bytes,
            "budget": _tail_state_budget,
            "evictions": _tail_state_evictions,
        }


def _solve_tail_dp(trendline: Trendline, compiled, key, kernel):
    """DP solve with retained-state reuse (byte-identical to cold).

    :func:`~repro.engine.dynamic.solve_query_extend` only ever reuses
    state whose trendline prefix is bitwise unchanged, so the result
    equals :func:`~repro.engine.parallel.solve_one`'s cold solve on the
    same inputs — the reuse is purely a work-skip.
    """
    from repro.engine.dynamic import solve_query_extend

    global _tail_state_bytes
    cache_key = (id(compiled), key)
    with _TAIL_STATES_LOCK:
        entry = _TAIL_STATES.get(cache_key)
        state = entry[1] if entry is not None and entry[0] is compiled else None
    result, new_state = solve_query_extend(trendline, compiled, state=state, kernel=kernel)
    with _TAIL_STATES_LOCK:
        _tail_state_pop_locked(cache_key)
        if new_state is not None:
            nbytes = new_state.state_nbytes()
            _TAIL_STATES[cache_key] = (compiled, new_state, nbytes)
            _tail_state_bytes += nbytes
            _tail_state_evict_locked()
    return result


def score_tail_groups(
    table_ref,
    params: VisualParams,
    normalize_y: bool,
    plan: Optional[PushdownPlan],
    query,
    indices: Sequence[int],
    algorithm: str = "segment-tree",
    kernel: Optional[str] = None,
):
    """Worker task of the streaming tail: re-score the named groups.

    ``indices`` are group indices into the (worker-resident) grouping of
    the *current* table — exactly the groups whose rows an append
    touched.  Each is re-extracted and re-scored by the same code a cold
    run uses on the same bytes, which is what makes the tail's refreshed
    results byte-identical to a cold solve of the full table.  Returns
    ``(index, key, QueryResult-or-None, Trendline-or-None)`` tuples —
    the key rides along so the parent can verify its group order against
    the workers' and fail loudly on drift, and the trendline so the
    parent can present top-k matches without re-grouping the table
    (shipping them is delta-proportional, like the rest of the refresh).
    A None result marks a group extraction dropped (too few points,
    degenerate series, push-down skip).
    """
    from repro.engine.parallel import solve_many
    from repro.engine.shm import resolve_query, resolve_table

    table = table_ref if isinstance(table_ref, Table) else resolve_table(table_ref)
    compiled = resolve_query(query)
    collection = build_collection(table, params, normalize_y, plan, indices)
    keys = collection.group_keys
    generated = dict(zip(collection.groups.tolist(), collection))
    out: List[list] = []  # [index, key, result, trendline]
    for index in indices:
        if index >= len(keys):
            out.append([index, None, None, None])
            continue
        trendline = generated.get(index)
        if trendline is None:
            with _TAIL_STATES_LOCK:
                _tail_state_pop_locked((id(compiled), keys[index]))
        out.append([index, keys[index], None, trendline])
    rescored = [entry for entry in out if entry[3] is not None]
    if algorithm == "dp":
        results = [
            _solve_tail_dp(trendline, compiled, key, kernel)
            for _index, key, _result, trendline in rescored
        ]
    else:
        results = solve_many(
            [entry[3] for entry in rescored], compiled, algorithm, kernel=kernel
        )
    for entry, result in zip(rescored, results):
        entry[2] = result
    return [tuple(entry) for entry in out]


class IncrementalMerge:
    """MergeTopK's long-lived twin for the streaming tail.

    Where :class:`MergeTopK` folds per-shard heaps once per execution,
    this merge persists across appends: the tail keeps every group's
    latest result and each refresh re-ranks them under the cold plan's
    exact total order — ``(score desc, position asc)`` normally,
    ``(score desc, str(key) asc)`` when the cold plan would have used
    the pruning driver — so the selected top-k always matches a cold
    run's.  It is also the cancellation rendezvous: like MergeTopK, a
    refresh whose shards were dropped by a cooperative cancel raises
    :class:`~repro.errors.SearchCancelled` instead of presenting a
    partial update.
    """

    __slots__ = ("k", "tie")

    def __init__(self, k: int, tie: str = "position"):
        self.k = k
        self.tie = tie  # "position" | "key" (mirrors the pruning driver)

    def merge(self, entries, control=None):
        """Rank ``(score, position, key, result)`` entries; return top-k."""
        from repro.errors import SearchCancelled

        if control is not None and control.cancelled:
            completed, total, dropped = control.snapshot()
            raise SearchCancelled(
                "tail refresh cancelled: {} of {} shard(s) completed, {} dropped"
                .format(completed, total, dropped)
            )
        if self.tie == "key":
            ranked = sorted(entries, key=lambda entry: (-entry[0], str(entry[2])))
        else:
            ranked = sorted(entries, key=lambda entry: (-entry[0], entry[1]))
        return ranked[: self.k]


# ---------------------------------------------------------------------------
# The staged physical-operator pipeline (§7 execution engine)
# ---------------------------------------------------------------------------


@dataclass
class PipelineContext:
    """Runtime services a plan executes against: the engine + this call's
    private stats.  Pools and shm sessions are reached through the
    engine so plans stay cheap, reusable descriptions.

    ``control`` (an :class:`~repro.engine.control.ExecutionControl`) is
    set by the non-blocking submit paths: the Score stage feeds it
    per-shard progress and honors cooperative cancellation, and the
    MergeTopK rendezvous acknowledges dropped shards by raising
    :class:`~repro.errors.SearchCancelled` instead of merging a partial
    top-k.  ``None`` (the blocking paths) costs nothing.
    """

    engine: object
    stats: object
    control: object = None


@dataclass
class TableSource:
    """Output of ScanTable: the table plus its published form, if any."""

    table: Table
    params: VisualParams
    handle: Optional[object] = None  # shm TableHandle when published


@dataclass
class DeferredGeneration:
    """A worker-side Extract/Group whose work is fused into Score tasks."""

    source: TableSource
    normalize_y: bool
    plan: Optional[PushdownPlan]
    group_count: int


@dataclass
class Candidates:
    """Extract/Group output: materialized trendlines or a deferred plan.

    IndexPrune leaves ``trendlines`` the resident (cached, shm-published)
    object and attaches the ``frontier`` the Score stage draws its
    rounds from (None = one round over every position).  ``resident`` is
    False for a list built for this run alone (cacheless generation, a
    precision cast): publishing it whole would be paid on every query,
    so the shm Score ships a frontier's blocks as objects instead.
    """

    trendlines: Optional[Sequence[Trendline]] = None
    deferred: Optional[DeferredGeneration] = None
    frontier: Optional[BoundFrontier] = None
    resident: bool = True


@dataclass
class ScoredShards:
    """Score output: per-shard top-k heaps, awaiting the global merge."""

    shards: List[object] = field(default_factory=list)
    pruned: bool = False
    sequential: bool = False
    worker_generated: bool = False


class Operator:
    """One physical pipeline stage.  ``run`` consumes the upstream
    operator's output; ``describe`` renders the EXPLAIN line."""

    name = "Operator"
    mode = ""

    def run(self, ctx: PipelineContext, value):
        raise NotImplementedError

    def detail(self) -> str:
        return ""

    def describe(self) -> str:
        detail = self.detail()
        return "{}[{}]{}".format(self.name, self.mode, " " + detail if detail else "")


class ScanTable(Operator):
    """Leaf: the OLAP table (in-process, or published to shared memory)."""

    name = "ScanTable"

    def __init__(self, table: Table, params: VisualParams, mode: str = "in-process"):
        self.table = table
        self.params = params
        self.mode = mode  # "in-process" | "shared-memory"

    def run(self, ctx, _value) -> TableSource:
        require_columns(self.table, self.params)
        handle = None
        if self.mode == "shared-memory":
            # The only mode that needs the content fingerprint — computed
            # (and memoized) inside table_handle; the in-process scan
            # stays hash-free.  Only the columns generation reads are
            # published.
            handle = ctx.engine._shm_session().table_handle(
                self.table, columns=_required_columns(self.table, self.params)
            )
        return TableSource(table=self.table, params=self.params, handle=handle)

    def detail(self) -> str:
        return "rows={} z={!r}".format(len(self.table), self.params.z)


class PrebuiltScan(Operator):
    """Leaf for the rank() paths: candidates the caller already holds."""

    name = "Scan"
    mode = "prebuilt"

    def __init__(self, trendlines: Sequence[Trendline]):
        self.trendlines = trendlines

    def run(self, ctx, _value) -> Candidates:
        return Candidates(trendlines=self.trendlines)

    def detail(self) -> str:
        return "candidates={}".format(len(self.trendlines))


class ExtractGroup(Operator):
    """EXTRACT ∘ GROUP with a parent-side and a worker-side implementation.

    ``parent`` materializes the collection in the calling process
    (through the engine's trendline cache and the optional batch memo);
    ``worker`` defers generation into the Score stage's fused tasks —
    the parent only establishes the shard domain (the group count).
    """

    name = "Extract/Group"

    def __init__(self, normalize_y: bool, plan: Optional[PushdownPlan],
                 mode: str, memo: Optional[dict] = None):
        self.normalize_y = normalize_y
        self.plan = plan
        self.mode = mode  # "parent" | "worker"
        self.memo = memo

    def run(self, ctx, source: TableSource) -> Candidates:
        ctx.stats.generation = self.mode
        if self.mode == "worker":
            # Group *indices* are sharded, so the parent only needs their
            # count, read off the table's z encoding.
            group_count = count_groups(source.table, source.params)
            return Candidates(
                deferred=DeferredGeneration(
                    source=source,
                    normalize_y=self.normalize_y,
                    plan=self.plan,
                    group_count=group_count,
                )
            )
        memo_key = (self.normalize_y, plan_fingerprint(self.plan))
        if self.memo is not None and memo_key in self.memo:
            ctx.stats.trendline_cache_hit = True
            trendlines = self.memo[memo_key]
        else:
            trendlines = ctx.engine._trendlines(
                source.table, source.params, self.normalize_y, self.plan, ctx.stats
            )
            if self.memo is not None:
                self.memo[memo_key] = trendlines
        ctx.stats.extracted = len(trendlines)
        return Candidates(
            trendlines=trendlines,
            resident=ctx.engine.cache is not None or self.memo is not None,
        )

    def detail(self) -> str:
        return "normalize_y={}".format(self.normalize_y)


class PrecisionCast(Operator):
    """Opt-in ``precision="float32"`` scoring: cast candidates once, here.

    Everything downstream — index bounds, DP kernels, merge — then runs
    on float32 values.  This is an *approximate* throughput mode,
    excluded from the byte-identity contract by construction (the engine
    refuses to combine it with the ``kernel="loop"`` oracle).
    """

    name = "Cast"
    mode = "float32"

    def run(self, ctx, candidates: Candidates) -> Candidates:
        return Candidates(
            trendlines=[
                cast_trendline(trendline, np.float32)
                for trendline in candidates.trendlines
            ],
            resident=False,
        )


#: The bound pass's shard floor (``make_range_chunks``): with the
#: block-batched kernel a shard of fewer candidates is a handful of
#: array ops, cheaper than its pool round trip — so the pass ships to
#: workers only when it cuts into at least two shards this large.
INDEX_DISPATCH_MIN = 256


class IndexPrune(Operator):
    """Open the bound frontier that lets Score stop before the last candidate.

    Runs between candidate materialization and Score: resolves the
    engine's persistent :class:`~repro.engine.shape_index.ShapeIndex`
    and hands on a :class:`~repro.engine.shape_index.BoundFrontier` —
    every candidate's coarse-level bound.  Score then solves the
    best-bounded candidates round by round, raising the top-k floor as
    it goes, and stops when no unsolved candidate's bound reaches the
    floor; the DP never touches the rest (decisions routed through the
    :func:`~repro.engine.shape_index.survives_floor` seam).
    Exactness: an unsolved candidate's true score is strictly below at
    least k others', and solved candidates keep their positions, so the
    *(score desc, position asc)* merge selects exactly the full scan's
    top k.

    On the shm process backend, once the candidates cut into two shards
    of :data:`INDEX_DISPATCH_MIN`, the bound pass itself is
    sharded: workers attach the published index zero-copy and evaluate
    the same function on the same buckets at full depth — valid bounds
    whichever transport computed them.
    """

    name = "IndexPrune"
    mode = "pyramid"

    def __init__(self, compiled, k: int, workers: int,
                 table: Optional[Table] = None, index_key: Optional[tuple] = None):
        self.compiled = compiled
        self.k = k
        self.workers = workers
        self.table = table
        self.index_key = index_key
        #: Which tier supplied the index on the last run ("memory" |
        #: "disk" | "built") and the frontier Score drew from, rendered
        #: into the explained plan.
        self.index_source: Optional[str] = None
        self.frontier: Optional[BoundFrontier] = None

    def run(self, ctx, candidates: Candidates) -> Candidates:
        engine = ctx.engine
        trendlines = candidates.trendlines
        total = len(trendlines)
        ctx.stats.index_candidates = total
        if total <= max(self.k, MIN_SEED_CANDIDATES) or self.k < 1:
            return candidates
        index, index_source, index_reason = engine._shape_index_for(
            trendlines, table=self.table, index_key=self.index_key
        )
        self.index_source = index_source
        ctx.stats.index_source = index_source
        ctx.stats.index_reason = index_reason
        bounds = self._dispatched_bounds(ctx, index, total)
        ctx.stats.index_bounds = "dispatched" if bounds is not None else "inline"
        self.frontier = BoundFrontier(index, self.compiled, bounds)
        return Candidates(
            trendlines=trendlines,
            frontier=self.frontier,
            resident=candidates.resident,
        )

    def _dispatched_bounds(self, ctx, index, total: int):
        """Worker-evaluated bounds on the shm path, or None for in-process."""
        from repro.engine.parallel import dispatch_index_bounds, make_range_chunks

        engine = ctx.engine
        ranges = make_range_chunks(total, self.workers, floor=INDEX_DISPATCH_MIN)
        if len(ranges) < 2 or engine.backend != "process" or not engine.shm:
            return None
        session = engine._shm_session()
        acquired = session.acquire_index(index, self.compiled)
        if acquired is None:
            return None
        handle, query_ref = acquired
        try:
            return dispatch_index_bounds(
                handle, query_ref, ranges, engine._resolve_pool(self.workers)
            )
        finally:
            session.unpin(handle, query_ref)

    def detail(self) -> str:
        if self.frontier is None:
            return "k={}".format(self.k)
        return "k={} source={} rounds={} refined=[{}]".format(
            self.k, self.index_source, self.frontier.rounds,
            ",".join(map(str, self.frontier.refined)),
        )


class _ScoreBase(Operator):
    """Shared configuration of the Score implementations."""

    name = "Score"

    def __init__(self, compiled, k: int, workers: int,
                 has_eager_checks: bool, pruning: bool):
        self.compiled = compiled
        self.k = k
        self.workers = workers
        self.has_eager_checks = has_eager_checks
        self.pruning = pruning

    def detail(self) -> str:
        return "workers={}{}".format(self.workers, " pruning" if self.pruning else "")


class ParallelScore(_ScoreBase):
    """Object-passing sharded scoring (thread pools, process+pickle).

    Without an index the stage is one round over every position.  With
    a :class:`~repro.engine.shape_index.BoundFrontier` it is best-first:
    each round draws the best-bounded unsolved block
    (:func:`~repro.engine.parallel.round_size` — a function of ``k`` and
    the round number only, so every plan solves the same candidates),
    shards and dispatches it like any stage, and folds the shards' items
    into the running top-k floor the next draw is held to.  Every
    candidate is solved at most once; the rounds end when the frontier
    has nothing left that could reach the floor.
    """

    mode = "parallel"

    def run(self, ctx, candidates: Candidates) -> ScoredShards:
        from repro.engine.parallel import round_size, score_ranges

        engine = ctx.engine
        frontier = candidates.frontier
        total = len(candidates.trendlines)
        floor = TopKFloor(self.k)
        shards: list = []
        handed = 0
        with contextlib.ExitStack() as pins:
            while True:
                if frontier is None:
                    positions = range(total)
                else:
                    positions = frontier.next_block(
                        round_size(self.k, frontier.rounds), floor.value
                    )
                    if not positions:
                        break
                # A round is sized once, here, whatever transport runs it.
                # One worker means one shard, whatever chunk size the pools use.
                ranges = score_ranges(
                    len(positions),
                    self.workers,
                    engine.chunk_size if self.workers > 1 else None,
                    pruning=self.pruning,
                )
                block = self.dispatch_shards(ctx, candidates, positions, ranges, pins)
                shards += block
                handed += len(positions)
                if frontier is None or (ctx.control is not None and ctx.control.cancelled):
                    break
                floor.add(item[0] for shard in block for item in shard.items)
        ctx.stats.candidates = handed
        if frontier is not None:
            ctx.stats.index_pruned = total - handed
        return ScoredShards(
            shards, pruned=self.pruning, sequential=self.mode == "sequential"
        )

    def dispatch_shards(self, ctx, candidates, positions, ranges, pins) -> list:
        from repro.engine.parallel import dispatch_prune_shards, dispatch_score_shards

        engine = ctx.engine
        pool = engine._resolve_pool(self.workers)
        if self.pruning:
            return dispatch_prune_shards(
                candidates.trendlines,
                self.compiled,
                self.k,
                pool,
                ranges,
                sample_size=engine.sample_size,
                sample_points=engine.sample_points,
                kernel=engine.kernel,
                control=ctx.control,
            )
        return dispatch_score_shards(
            candidates.trendlines,
            self.compiled,
            self.k,
            pool,
            ranges,
            algorithm=engine.algorithm,
            enable_pushdown=engine.enable_pushdown,
            has_eager_checks=self.has_eager_checks,
            kernel=engine.kernel,
            control=ctx.control,
            positions=positions,
        )


class SequentialScore(ParallelScore):
    """One shard per round, scored in the caller — the workers=1 path (a
    one-worker pool never leaves the process)."""

    mode = "sequential"


class SharedMemoryScore(ParallelScore):
    """Position-sharded scoring over the shm-published collection.

    The *full* collection and the compiled query are published once per
    session (acquired-and-pinned atomically — once per run, by the first
    round that crosses the pool — so concurrent evictions cannot unlink
    a segment mid-dispatch) and stay resident in the workers; shards
    travel as ``(handle, positions)`` — slices of the round's positions
    — and come back without trendlines.  Two kinds of round publish
    nothing and take the object-passing path instead: one with fewer
    than two shards (it runs in the caller and never touches the pool),
    and a frontier's block of a collection that is not resident — a
    per-run list would be published whole and re-attached by every
    worker on every query, to solve the few candidates a round draws.
    """

    mode = "shared-memory"
    _pinned = None  # this run's (collection handle, query ref), once acquired

    def _unpin(self, session) -> None:
        pinned, self._pinned = self._pinned, None
        session.unpin(*pinned)

    def dispatch_shards(self, ctx, candidates, positions, ranges, pins) -> list:
        from repro.engine.parallel import dispatch_prune_ranges, dispatch_score_ranges

        engine = ctx.engine
        trendlines = candidates.trendlines
        narrowed = len(positions) < len(trendlines)
        if len(ranges) < 2 or (narrowed and not candidates.resident):
            return super().dispatch_shards(ctx, candidates, positions, ranges, pins)
        pool = engine._resolve_pool(self.workers)
        if self._pinned is None:
            session = engine._shm_session()
            self._pinned = session.acquire(trendlines, self.compiled)
            pins.callback(self._unpin, session)
        handle, query_ref = self._pinned
        if self.pruning:
            return dispatch_prune_ranges(
                handle,
                query_ref,
                self.k,
                pool,
                ranges,
                sample_size=engine.sample_size,
                sample_points=engine.sample_points,
                kernel=engine.kernel,
                control=ctx.control,
            )
        return dispatch_score_ranges(
            handle,
            query_ref,
            self.k,
            pool,
            ranges,
            algorithm=engine.algorithm,
            enable_pushdown=engine.enable_pushdown,
            has_eager_checks=self.has_eager_checks,
            kernel=engine.kernel,
            control=ctx.control,
            positions=positions,
        )


class GenerateAndScore(_ScoreBase):
    """The fused worker-side stage: Extract/Group + Score in one task.

    Consumes a :class:`DeferredGeneration`: shards are group-key index
    ranges over the (published or in-process) table, and each worker
    generates its own trendlines before scoring them — generation
    parallelizes with scoring, and for the process backend nothing but
    the shard's top-k ever crosses a process boundary.
    """

    mode = "worker-generate"

    def run(self, ctx, candidates: Candidates) -> ScoredShards:
        from repro.engine.parallel import dispatch_generate_score

        engine = ctx.engine
        deferred = candidates.deferred
        if deferred.group_count == 0:
            ctx.stats.candidates = 0
            if ctx.control is not None:
                ctx.control.begin(0)
            return ScoredShards([], worker_generated=True)
        source = deferred.source
        pool = engine._resolve_pool(self.workers)
        session = None
        if source.handle is not None:
            # Re-acquire (publish-or-reuse) the table and query handles
            # and pin both atomically: the session's table memo is
            # LRU-bounded, so a concurrent execute over other tables
            # must not unlink this dispatch's segment mid-flight.
            session = engine._shm_session()
            table_ref, query_ref = session.acquire_generation(
                source.table,
                self.compiled,
                columns=_required_columns(source.table, source.params),
            )
        else:
            table_ref = source.table
            query_ref = self.compiled
        try:
            shards = dispatch_generate_score(
                table_ref,
                source.params,
                deferred.normalize_y,
                deferred.plan,
                query_ref,
                deferred.group_count,
                self.k,
                pool,
                algorithm=engine.algorithm,
                enable_pushdown=engine.enable_pushdown,
                chunk_size=engine.chunk_size,
                has_eager_checks=self.has_eager_checks,
                kernel=engine.kernel,
                control=ctx.control,
            )
        finally:
            if session is not None:
                session.unpin(table_ref, query_ref)
        return ScoredShards(list(shards), worker_generated=True)


class MergeTopK(Operator):
    """Global top-k from per-shard heaps, under the shared total order.

    Also the stats rendezvous: per-shard counters (scored, eager
    discards, worker-side generation counts, pruning reports) fold into
    the call's :class:`ExecutionStats` here, exactly once.  And the
    *cancellation* rendezvous: when a cooperative cancel dropped shards
    upstream, the merge refuses to present a partial top-k and raises
    :class:`~repro.errors.SearchCancelled` instead.
    """

    name = "MergeTopK"
    mode = "(score desc, position asc)"

    def __init__(self, k: int):
        self.k = k

    def run(self, ctx, scored: ScoredShards):
        from repro.engine.executor import _to_matches
        from repro.engine.parallel import (
            aggregate_pruning_reports,
            merge_pruned_items,
            merge_shard_results,
        )
        from repro.errors import SearchCancelled

        control = ctx.control
        if control is not None and control.cancelled:
            completed, total = control.progress
            raise SearchCancelled(
                "search cancelled: {} of {} shard(s) completed, {} dropped"
                .format(completed, total, control.dropped)
            )
        stats = ctx.stats
        shards = scored.shards
        if not scored.sequential:
            stats.shards = len(shards)
        if scored.pruned:
            report = aggregate_pruning_reports(shards)
            stats.pruning = report
            stats.scored = report.completed
            items = merge_pruned_items(shards, self.k)
        else:
            for shard in shards:
                stats.scored += shard.scored
                stats.eager_discarded += shard.eager_discarded
            if scored.worker_generated:
                generated = sum(shard.generated for shard in shards)
                stats.extracted = generated
                stats.candidates = generated
            items = merge_shard_results(shards, self.k)
        return _to_matches(items)

    def detail(self) -> str:
        return "k={}".format(self.k)


@dataclass
class PhysicalPlan:
    """A compiled execution: the operator chain plus planner decisions."""

    operators: List[Operator]
    generation: str = "parent"

    def run(self, ctx: PipelineContext):
        value = None
        for operator in self.operators:
            value = operator.run(ctx, value)
        return value

    def explain(self) -> str:
        """The EXPLAIN rendering: one line per operator, in flow order."""
        lines = []
        for index, operator in enumerate(self.operators):
            prefix = "" if index == 0 else "  -> "
            lines.append(prefix + operator.describe())
        return "\n".join(lines)


def _resolve_generation(engine, parallel, use_pruning, force_parent=False) -> str:
    """Pick the Extract/Group implementation for one execution.

    Worker-side generation requires a parallel Score stage whose workers
    can reach the table — the thread backend (shared address space) or
    the process backend with the shm transport — and is skipped under
    pruning (the collective-pruning driver wants the materialized
    collection).  ``generation="auto"`` applies it on the process
    backend, where parent-side generation is the serial bottleneck the
    stage exists to remove, unless a trendline cache is configured — a
    cache marks an interactive session, where one parent-side generation
    pass feeds every repeat query from memory and also lets the shm
    transport reuse the published collection segment.  The thread
    backend defaults to parent-side — in-process generation is GIL-bound
    either way, so deferral buys nothing — but honors an explicit
    ``generation="worker"``.  ``force_parent`` marks executions whose
    plan needs the materialized collection in the parent (index pruning,
    precision casting) regardless of the backend's preference.
    """
    requested = getattr(engine, "generation", "auto")
    capable = (
        parallel
        and not use_pruning
        and not force_parent
        and (engine.backend == "thread" or (engine.backend == "process" and engine.shm))
    )
    if requested == "parent" or not capable:
        return "parent"
    if requested == "worker":
        return "worker"
    if engine.backend != "process" or engine.cache is not None:
        return "parent"
    return "worker"


def plan_pipeline(
    engine,
    compiled,
    k: int,
    table: Optional[Table] = None,
    params: Optional[VisualParams] = None,
    trendlines: Optional[Sequence[Trendline]] = None,
    workers: Optional[int] = None,
    memo: Optional[dict] = None,
) -> PhysicalPlan:
    """Compile one query execution into the staged operator DAG.

    The planner replaces the engine's historical ``_rank_into`` /
    ``_rank_parallel`` / ``_rank_parallel_shm`` branching: every
    decision — sequential vs parallel Score, object vs range transport,
    parent- vs worker-side Extract/Group, pruning — is made here, once,
    and the returned plan is a linear chain of operators whose
    implementations all preserve the total order *(score desc, position
    asc)*.  Pass either ``table`` + ``params`` (the execute paths) or
    pre-built ``trendlines`` (the rank paths); ``memo`` is the batch
    generation memo shared across an ``execute_many`` call.
    """
    from repro.engine.pruning import is_prunable

    effective = engine.workers if workers is None else engine._check_workers(workers)
    plan = plan_pushdown(compiled) if engine.enable_pushdown else None
    has_eager = plan.has_eager_checks if plan is not None else False
    use_pruning = (
        engine.enable_pruning
        and engine.algorithm == "segment-tree"
        and is_prunable(compiled)
    )
    parallel = effective > 1
    cast = getattr(engine, "precision", "float64") == "float32"
    # Index pruning needs a parent-materialized collection and a query
    # whose units the pyramid can bound; anything else is the full-scan
    # fallback, visible as the absence of an IndexPrune line in EXPLAIN.
    use_index = (
        getattr(engine, "index", False)
        and not use_pruning
        and k >= 1
        and index_supports(compiled)
    )

    operators: List[Operator] = []
    index_table: Optional[Table] = None
    index_key: Optional[tuple] = None
    if trendlines is not None:
        operators.append(PrebuiltScan(trendlines))
        generation = "parent"
    else:
        normalize_y = not query_constrains_y(compiled)
        generation = _resolve_generation(
            engine, parallel, use_pruning, force_parent=use_index or cast
        )
        scan_mode = (
            "shared-memory"
            if generation == "worker" and engine.backend == "process"
            else "in-process"
        )
        operators.append(ScanTable(table, params, scan_mode))
        operators.append(ExtractGroup(normalize_y, plan, generation, memo=memo))
        index_table = table
        index_key = (
            params,
            normalize_y,
            plan_fingerprint(plan),
            getattr(engine, "precision", "float64"),
        )
    if generation == "parent":
        if cast:
            operators.append(PrecisionCast())
        if use_index:
            operators.append(
                IndexPrune(compiled, k, effective, table=index_table,
                           index_key=index_key)
            )

    score_args = {
        "compiled": compiled,
        "k": k,
        "workers": effective,
        "has_eager_checks": has_eager,
        "pruning": use_pruning,
    }
    if generation == "worker":
        operators.append(GenerateAndScore(**score_args))
    elif not parallel:
        operators.append(SequentialScore(**score_args))
    elif engine.backend == "process" and engine.shm:
        operators.append(SharedMemoryScore(**score_args))
    else:
        operators.append(ParallelScore(**score_args))
    operators.append(MergeTopK(k))
    return PhysicalPlan(operators, generation=generation)
