"""REP03x: the Score seams — cancellable dispatch, batched solving.

``PreparedSearch.submit`` promises cooperative cancellation with
byte-identical reruns (tests/test_async_submit.py).  That only holds
because every Score-stage dispatch funnels through
``WorkerPool.run_cancellable`` via ``_run_tasks`` (or, for the
single-shard sequential path, checkpoints ``ctx.control`` itself), and
because raw ``concurrent.futures`` pools never appear outside
``WorkerPool`` — a bare executor has no sweep-cancel, no shard progress,
and no deterministic-rerun discipline.

REP034 guards the other Score funnel: candidates are solved together by
``solve_many`` (one level-wise array combine per block of trendlines),
so a per-candidate ``solve_one`` loop in engine code silently falls back
to one kernel launch per trendline.  REP035 guards the stage before it
the same way: collections are generated by the block kernel
(``repro.engine.collection``) from the table's dictionary-encoded group
column, so a per-group ``build_trendline`` loop, or a per-row
``.tolist()`` walk over a table column, re-introduces the Python loops
that kernel replaced.
"""

from __future__ import annotations

import ast

from tools.reprolint.findings import make_finding
from tools.reprolint.visitor import FileContext, Rule, call_name

_SEAM_CALLS = {"_run_tasks", "run_cancellable"}


def _score_classes(ctx: FileContext):
    for node in ctx.walk(ast.ClassDef):
        base_names = {
            base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
            for base in node.bases
        }
        if "_ScoreBase" in base_names or node.name.endswith("Score"):
            yield node


class ScoreSeamRule(Rule):
    """REP031: Score operators must dispatch through the control seam.

    A ``run`` method on a Score operator must either call a
    ``dispatch_*`` helper (all of which route through ``_run_tasks``) or
    reference the execution ``control`` directly (the sequential path's
    begin/cancelled/shard_completed checkpoints).  A shard loop that
    does neither is invisible to cancel and progress.
    """

    id = "REP031"
    name = "score-seam"
    rationale = (
        "a Score dispatch outside _run_tasks/run_cancellable (or an explicit "
        "control checkpoint) cannot be cancelled and reports no progress"
    )
    scope = ("src/repro/engine/pipeline.py",)

    def check(self, ctx: FileContext):
        for cls in _score_classes(ctx):
            for item in cls.body:
                if not isinstance(item, ast.FunctionDef) or item.name != "run":
                    continue
                routed = False
                for node in ast.walk(item):
                    name = call_name(node)
                    if name is not None and (
                        name.startswith("dispatch_") or name in _SEAM_CALLS
                    ):
                        routed = True
                        break
                    if isinstance(node, ast.Attribute) and node.attr == "control":
                        routed = True
                        break
                if not routed:
                    yield make_finding(
                        self,
                        ctx,
                        item,
                        "{}.run dispatches shards without a dispatch_* helper or "
                        "a control checkpoint".format(cls.name),
                        context=cls.name,
                    )


class DispatchFunnelRule(Rule):
    """REP032: every dispatch_* helper routes through _run_tasks.

    ``_run_tasks`` is the single funnel that makes the blocking and the
    cancellable transports cover identical rows in identical order; a
    dispatcher that bypasses it forks the two behaviors apart.
    """

    id = "REP032"
    name = "dispatch-funnel"
    rationale = (
        "_run_tasks is the single dispatch funnel; bypassing it forks the "
        "blocking and cancellable transports apart"
    )
    scope = ("src/repro/engine/parallel.py",)

    def check(self, ctx: FileContext):
        for node in ctx.walk(ast.FunctionDef):
            if not node.name.startswith("dispatch_"):
                continue
            routed = any(
                call_name(child) in _SEAM_CALLS for child in ast.walk(node)
            )
            if not routed:
                yield make_finding(
                    self,
                    ctx,
                    node,
                    "{} does not route through _run_tasks/run_cancellable".format(
                        node.name
                    ),
                )


class ExecutorConfinementRule(Rule):
    """REP033: the shard pool is a process pool, built only in WorkerPool.

    ``WorkerPool`` owns the lifecycle discipline — lazy creation,
    ``weakref.finalize`` shutdown, sweep-cancel, workers==1 inline
    execution — and constructs a ``ProcessPoolExecutor`` and nothing
    else.  A ``ProcessPoolExecutor`` built anywhere else starts processes
    with none of that discipline, and a ``ThreadPoolExecutor`` anywhere
    is a GIL-bound shard pool in the making (the driver-dispatch pool is
    the reviewed exception, in ``baseline.json``).
    """

    id = "REP033"
    name = "executor-confinement"
    rationale = (
        "raw executors lack WorkerPool's finalize/shutdown and sweep-cancel "
        "discipline, and a thread pool cannot scale the Score stage; shard "
        "work goes through WorkerPool's process pool"
    )
    scope = ("src/",)

    def check(self, ctx: FileContext):
        for node in ctx.walk(ast.Call):
            name = call_name(node)
            if name == "ProcessPoolExecutor":
                if "WorkerPool" in ctx.qualname(node).split("."):
                    continue
                message = "ProcessPoolExecutor constructed outside WorkerPool"
            elif name == "ThreadPoolExecutor":
                message = "ThreadPoolExecutor constructed; shard pools are processes"
            else:
                continue
            yield make_finding(self, ctx, node, message)


_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_LOOPS = (ast.For, ast.AsyncFor, ast.While) + _COMPREHENSIONS


def _inside_loop(ctx: FileContext, node: ast.AST) -> bool:
    """True when ``node`` sits in a loop/comprehension of its own function."""
    current = ctx.parent(node)
    while current is not None and not isinstance(
        current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    ):
        if isinstance(current, _LOOPS):
            return True
        current = ctx.parent(current)
    return False


class BatchScoreFunnelRule(Rule):
    """REP034: engine code scores collections through ``solve_many``.

    Flags a ``solve_one(...)`` call that sits inside a loop or a
    comprehension of its enclosing function — the shape of a shard,
    tail or seed loop before it was batched.  ``solve_one`` itself stays
    available for the genuinely single-candidate paths.  Inside the
    funnel itself (``solve_query_batched``, ``score_shard``) it also
    flags a per-candidate ``_finalize(...)`` or ``QueryResult(...)`` in
    a loop: results stay columns (``ScoreBlock``) until a caller reads
    one, and the per-candidate final pass lives in ``_finalize_each``
    for the chains the columnar pass does not cover.
    """

    id = "REP034"
    name = "batch-score-funnel"
    rationale = (
        "solve_many solves a block of candidates with one array kernel and "
        "finalizes it as columns; a solve_one loop pays the per-level "
        "dispatch once per trendline, and a per-candidate _finalize or "
        "QueryResult in the funnel builds objects a shard discards"
    )
    scope = ("src/repro/engine/",)

    _FUNNELS = {"solve_query_batched", "score_shard"}
    _PER_CANDIDATE = {"_finalize", "QueryResult"}

    def check(self, ctx: FileContext):
        for node in ctx.walk(ast.Call):
            name = call_name(node)
            if name == "solve_one" and _inside_loop(ctx, node):
                yield make_finding(
                    self,
                    ctx,
                    node,
                    "solve_one called per candidate inside a loop; hand the "
                    "collection to solve_many",
                )
            elif name in self._PER_CANDIDATE and _inside_loop(ctx, node):
                function = ctx.enclosing_function(node)
                if function is not None and function.name in self._FUNNELS:
                    yield make_finding(
                        self,
                        ctx,
                        node,
                        "{} called per candidate inside {}; keep the block's "
                        "columns and build results only where they are "
                        "read".format(name, function.name),
                    )


def _is_column(node: ast.AST, column_names) -> bool:
    """``t.column(...)``, a slice/gather of one, or a local bound to one."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id in column_names
    return call_name(node) == "column"


class CollectionFunnelRule(Rule):
    """REP035: collections come from the block kernel, not Python loops.

    Two shapes are flagged.  A ``build_trendline(...)`` call inside a
    loop or comprehension — the per-group GROUP the kernel replaced
    (``build_trendline`` stays the single-series constructor).  And a
    loop or comprehension that iterates ``<column>.tolist()``, where
    ``<column>`` is a ``.column(...)`` call, a slice of one, or a local
    assigned from one in the same function — the per-row walk
    ``Table.group_by``, ``count_groups`` and the tail's affected-key scan
    each had before they read ``Table.encoding``.  The one sanctioned
    walk is the encode funnel ``_encode_values`` (once per table, once
    per appended delta), exempt by name; arrays received as parameters
    are not tracked.
    """

    id = "REP035"
    name = "collection-funnel"
    rationale = (
        "build_collection generates every trendline from the table's z "
        "encoding in one block pass; a per-group build_trendline loop or a "
        "per-row .tolist() walk over a column pays Python per group/row on "
        "every query and append"
    )
    scope = ("src/repro/engine/", "src/repro/api.py", "src/repro/data/table.py")

    def check(self, ctx: FileContext):
        for node in ctx.walk(ast.Call):
            if call_name(node) == "build_trendline" and _inside_loop(ctx, node):
                yield make_finding(
                    self,
                    ctx,
                    node,
                    "build_trendline called per group inside a loop; generate "
                    "the collection with build_collection",
                )
        for function in ctx.walk((ast.FunctionDef, ast.AsyncFunctionDef)):
            if function.name == "_encode_values":
                continue
            columns = {
                target.id
                for node in ast.walk(function)
                if isinstance(node, ast.Assign) and _is_column(node.value, ())
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            for node in ast.walk(function):
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iterables = [node.iter]
                elif isinstance(node, _COMPREHENSIONS):
                    iterables = [generator.iter for generator in node.generators]
                else:
                    continue
                for iterable in iterables:
                    for call in ast.walk(iterable):
                        if (
                            call_name(call) == "tolist"
                            and isinstance(call.func, ast.Attribute)
                            and _is_column(call.func.value, columns)
                        ):
                            yield make_finding(
                                self,
                                ctx,
                                call,
                                "per-row .tolist() walk over a table column; read "
                                "Table.encoding (the one encode funnel) instead",
                            )
