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
  all groups, and the groups an append touched.

* The **staged physical-operator pipeline** of §7's execution engine: a
  small planner (:func:`plan_pipeline`) compiles one query execution
  into a chain of operators —

      ScanTable → Extract/Group → [IndexPrune →] Score → MergeTopK

  — where ``workers=`` alone picks the Score implementation: one shard
  in the caller, or shards on a process pool over the shared-memory
  published collection.  Every implementation preserves the engine's
  total order *(score desc, position asc)*, so results are
  byte-identical across operators and worker counts.
"""

from __future__ import annotations

import contextlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.data.table import Table
from repro.data.visual_params import VisualParams
from repro.engine.cache import plan_fingerprint
from repro.engine.collection import Collection, build_collection, require_columns
from repro.engine.pushdown import PushdownPlan, plan_pushdown
from repro.engine.shape_index import (
    MIN_SEED_CANDIDATES,
    BoundFrontier,
    TopKFloor,
    index_supports,
)
from repro.engine.trendline import Trendline, cast_trendline
from repro.errors import ExecutionError

# ---------------------------------------------------------------------------
# EXTRACT / GROUP (logical operators, paper §5.3)
# ---------------------------------------------------------------------------


def _required_columns(table: Table, params: VisualParams):
    """The column subset generation reads: z/x/y plus filter columns.

    The streaming tail publishes only these into shared memory —
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
    total order *(score desc, position asc)*, so the selected top-k
    always matches a cold run's.  It is also the cancellation
    rendezvous: like MergeTopK, a refresh whose shards were dropped by a
    cooperative cancel raises :class:`~repro.errors.SearchCancelled`
    instead of presenting a partial update.
    """

    __slots__ = ("k",)

    def __init__(self, k: int):
        self.k = k

    def merge(self, entries, control=None):
        """Rank ``(score, position, key, result)`` entries; return top-k."""
        from repro.errors import SearchCancelled

        if control is not None and control.cancelled:
            completed, total, dropped = control.snapshot()
            raise SearchCancelled(
                "tail refresh cancelled: {} of {} shard(s) completed, {} dropped"
                .format(completed, total, dropped)
            )
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
    """Output of ScanTable: the table and the visual parameters."""

    table: Table
    params: VisualParams


@dataclass
class Candidates:
    """Extract/Group output: the materialized trendlines.

    IndexPrune leaves ``trendlines`` the resident (cached, shm-published)
    object and attaches the ``frontier`` the Score stage draws its
    rounds from (None = one round over every position).  ``resident`` is
    False for a list built for this run alone (cacheless generation, a
    precision cast): publishing it whole would be paid on every query,
    so the shm Score ships a frontier's blocks as objects instead.
    """

    trendlines: Sequence[Trendline]
    frontier: Optional[BoundFrontier] = None
    resident: bool = True


@dataclass
class ScoredShards:
    """Score output: per-shard top-k heaps, awaiting the global merge."""

    shards: List[object] = field(default_factory=list)
    sequential: bool = False


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
    """Leaf: the in-memory OLAP table."""

    name = "ScanTable"
    mode = "in-process"

    def __init__(self, table: Table, params: VisualParams):
        self.table = table
        self.params = params

    def run(self, ctx, _value) -> TableSource:
        require_columns(self.table, self.params)
        return TableSource(table=self.table, params=self.params)

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
    """EXTRACT ∘ GROUP, materialized in the calling process.

    Goes through the engine's trendline cache and the optional batch
    memo, so repeats and batches share one generation pass.
    """

    name = "Extract/Group"
    mode = "parent"

    def __init__(self, normalize_y: bool, plan: Optional[PushdownPlan],
                 memo: Optional[dict] = None):
        self.normalize_y = normalize_y
        self.plan = plan
        self.memo = memo

    def run(self, ctx, source: TableSource) -> Candidates:
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
    top k.  The bound pass runs in the caller, whatever ``workers`` is,
    and reads what earlier runs of the same query bounded on the same
    index from that index's memo: ``refined=[…]`` in the detail counts
    the rows evaluated per pyramid level, coarsest first, and
    ``computed=[…]`` those of them this run computed.
    """

    name = "IndexPrune"
    mode = "pyramid"

    def __init__(self, compiled, k: int,
                 table: Optional[Table] = None, index_key: Optional[tuple] = None):
        self.compiled = compiled
        self.k = k
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
        self.frontier = BoundFrontier(index, self.compiled)
        return Candidates(
            trendlines=trendlines,
            frontier=self.frontier,
            resident=candidates.resident,
        )

    def detail(self) -> str:
        if self.frontier is None:
            return "k={}".format(self.k)
        return "k={} source={} rounds={} refined=[{}] computed=[{}]".format(
            self.k, self.index_source, self.frontier.rounds,
            ",".join(map(str, self.frontier.refined)),
            ",".join(map(str, self.frontier.computed)),
        )


class _ScoreBase(Operator):
    """The Score stage's round loop, shared by both implementations.

    Without an index the stage is one round over every position.  With
    a :class:`~repro.engine.shape_index.BoundFrontier` it is best-first:
    each round draws the best-bounded unsolved block
    (:func:`~repro.engine.parallel.round_size` — a function of ``k`` and
    the round number only, so every plan solves the same candidates),
    shards and dispatches it like any stage, and folds the shards' items
    into the running top-k floor the next draw is held to.  Every
    candidate is solved at most once; the rounds end when the frontier
    has nothing left that could reach the floor.  A round goes out
    through :meth:`dispatch_shards`, which here ships the trendlines
    themselves (object-passing).
    """

    name = "Score"

    def __init__(self, compiled, k: int, workers: int,
                 has_eager_checks: bool, reason: Optional[str] = None):
        self.compiled = compiled
        self.k = k
        self.workers = workers
        self.has_eager_checks = has_eager_checks
        #: Why the planner overrode the engine's worker count (EXPLAIN).
        self.reason = reason

    def detail(self) -> str:
        return "workers={}{}".format(
            self.workers,
            " reason={}".format(self.reason) if self.reason else "",
        )

    def run(self, ctx, candidates: Candidates) -> ScoredShards:
        from repro.engine.parallel import round_size, score_ranges

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
                ranges = score_ranges(len(positions), self.workers)
                block = self.dispatch_shards(ctx, candidates, positions, ranges, pins)
                shards += block
                handed += len(positions)
                if frontier is None or (ctx.control is not None and ctx.control.cancelled):
                    break
                floor.add(item[0] for shard in block for item in shard.items)
        ctx.stats.candidates = handed
        if frontier is not None:
            ctx.stats.index_pruned = total - handed
        return ScoredShards(shards, sequential=self.mode == "sequential")

    def dispatch_shards(self, ctx, candidates, positions, ranges, pins) -> list:
        from repro.engine.parallel import dispatch_score_shards

        engine = ctx.engine
        return dispatch_score_shards(
            candidates.trendlines,
            self.compiled,
            self.k,
            engine._resolve_pool(self.workers),
            ranges,
            algorithm=engine.algorithm,
            enable_pushdown=engine.enable_pushdown,
            has_eager_checks=self.has_eager_checks,
            kernel=engine.kernel,
            control=ctx.control,
            positions=positions,
        )


class SequentialScore(_ScoreBase):
    """One shard per round, scored in the caller — the workers=1 path (a
    one-worker pool never starts a process)."""

    mode = "sequential"


class SharedMemoryScore(_ScoreBase):
    """Position-sharded scoring on the process pool — the workers>1 path.

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
        from repro.engine.parallel import dispatch_score_ranges

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
        try:
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
        except ExecutionError:
            engine._shm_session().forget_vanished(handle, query_ref)
            raise


class MergeTopK(Operator):
    """Global top-k from per-shard heaps, selected under the engine's one
    total order *(score desc, position asc)* — the order the shard heaps
    keep — and presented by :func:`~repro.engine.executor._to_matches`.

    Also the stats rendezvous: per-shard counters (scored, eager
    discards) fold into the call's :class:`ExecutionStats` here, exactly
    once.  And the *cancellation*
    rendezvous: when a cooperative cancel dropped shards upstream, the
    merge refuses to present a partial top-k and raises
    :class:`~repro.errors.SearchCancelled` instead.
    """

    name = "MergeTopK"
    mode = "(score desc, position asc)"

    def __init__(self, k: int):
        self.k = k

    def run(self, ctx, scored: ScoredShards):
        from repro.engine.executor import _to_matches
        from repro.engine.parallel import merge_shard_results
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
        for shard in shards:
            stats.scored += shard.scored
            stats.eager_discarded += shard.eager_discarded
        return _to_matches(merge_shard_results(shards, self.k))

    def detail(self) -> str:
        return "k={}".format(self.k)


@dataclass
class PhysicalPlan:
    """A compiled execution: the operator chain, in flow order."""

    operators: List[Operator]

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


def scoring_workers(engine, compiled, workers: Optional[int] = None):
    """``(worker count, reason)`` one execution of ``compiled`` runs with.

    The engine's (or the per-call) ``workers``, except that a query
    calling a user-defined pattern anywhere — nested sub-queries
    included — runs in the caller, reason ``"udp"``: UDPs live in this
    process's registry, so a pool worker could not resolve one
    registered after it started.
    """
    count = engine.workers if workers is None else engine._check_workers(workers)
    if count > 1 and compiled.uses_udp:
        return 1, "udp"
    return count, None


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
    """Compile one query execution into the staged operator chain.

    Every decision — in-caller vs shared-memory Score, index — is made
    here, once, and the returned plan is a linear chain of
    operators whose implementations all preserve the total order
    *(score desc, position asc)*.  The Score implementation follows the
    worker count alone (:func:`scoring_workers`).  Pass either ``table``
    + ``params`` (the table paths) or pre-built ``trendlines`` (the
    rank paths); ``memo`` is the batch generation memo shared across a
    ``run_many`` call.
    """
    effective, reason = scoring_workers(engine, compiled, workers)
    plan = plan_pushdown(compiled) if engine.enable_pushdown else None
    has_eager = plan.has_eager_checks if plan is not None else False
    # Index pruning needs a query whose units the pyramid can bound;
    # anything else is the full-scan fallback, visible as the absence of
    # an IndexPrune line in EXPLAIN.
    use_index = engine.index and k >= 1 and index_supports(compiled)

    operators: List[Operator] = []
    index_table: Optional[Table] = None
    index_key: Optional[tuple] = None
    if trendlines is not None:
        operators.append(PrebuiltScan(trendlines))
    else:
        normalize_y = not query_constrains_y(compiled)
        operators.append(ScanTable(table, params))
        operators.append(ExtractGroup(normalize_y, plan, memo=memo))
        index_table = table
        index_key = (params, normalize_y, plan_fingerprint(plan), engine.precision)
    if engine.precision == "float32":
        operators.append(PrecisionCast())
    if use_index:
        operators.append(
            IndexPrune(compiled, k, table=index_table, index_key=index_key)
        )
    score = SharedMemoryScore if effective > 1 else SequentialScore
    operators.append(score(compiled, k, effective, has_eager, reason))
    operators.append(MergeTopK(k))
    return PhysicalPlan(operators)
