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
to one kernel launch per trendline.
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
    """REP033: concurrent.futures pools are constructed only in WorkerPool.

    ``WorkerPool`` owns the lifecycle discipline — lazy creation,
    ``weakref.finalize`` shutdown, sweep-cancel, workers==1 inline
    execution.  A ``ThreadPoolExecutor``/``ProcessPoolExecutor`` built
    anywhere else starts threads/processes with none of it.
    """

    id = "REP033"
    name = "executor-confinement"
    rationale = (
        "raw executors lack WorkerPool's finalize/shutdown and sweep-cancel "
        "discipline; construct pools through WorkerPool"
    )
    scope = ("src/",)

    _POOLS = {"ThreadPoolExecutor", "ProcessPoolExecutor"}

    def check(self, ctx: FileContext):
        for node in ctx.walk(ast.Call):
            if call_name(node) not in self._POOLS:
                continue
            if "WorkerPool" in ctx.qualname(node).split("."):
                continue
            yield make_finding(
                self,
                ctx,
                node,
                "{} constructed outside WorkerPool".format(call_name(node)),
            )


_LOOPS = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


class BatchScoreFunnelRule(Rule):
    """REP034: engine code scores collections through ``solve_many``.

    Flags a ``solve_one(...)`` call that sits inside a loop or a
    comprehension of its enclosing function — the shape of a shard,
    tail or seed loop before it was batched.  ``solve_one`` itself stays
    available for the genuinely single-candidate paths.
    """

    id = "REP034"
    name = "batch-score-funnel"
    rationale = (
        "solve_many solves a block of candidates with one array kernel; a "
        "solve_one loop pays the per-level dispatch once per trendline "
        "instead"
    )
    scope = ("src/repro/engine/",)

    def check(self, ctx: FileContext):
        for node in ctx.walk(ast.Call):
            if call_name(node) != "solve_one":
                continue
            current = ctx.parent(node)
            while current is not None and not isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                if isinstance(current, _LOOPS):
                    yield make_finding(
                        self,
                        ctx,
                        node,
                        "solve_one called per candidate inside a loop; hand the "
                        "collection to solve_many",
                    )
                    break
                current = ctx.parent(current)
