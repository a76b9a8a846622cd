"""REP01x: determinism — ordered outputs must not depend on runtime order.

The engine's headline guarantee (tests/test_determinism.py,
tests/test_matrix_kernel.py) is that results are byte-identical for any
worker count, transport and kernel.  Everything here exists to keep the
*inputs* to the total order ``(score desc, position asc)`` themselves
deterministic: no iteration over unordered containers on result paths,
no unstable sorts where equal keys could swap, no wall-clock or RNG
inside scoring.
"""

from __future__ import annotations

import ast

from tools.reprolint.findings import make_finding
from tools.reprolint.visitor import (
    FileContext,
    Rule,
    call_name,
    has_keyword,
    is_set_expression,
)

_ENGINE = ("src/repro/engine/",)


class SetIterationRule(Rule):
    """REP011: no iteration over set expressions in engine code.

    ``for x in {...}`` / ``set(...)`` / a module-level set registry
    iterates in hash order, which varies across processes (string hash
    randomization) — any ordered output derived from such a loop breaks
    byte-identity between a fork and a spawn worker, or between reruns.
    Wrap the iterable in ``sorted(...)`` or restructure.
    """

    id = "REP011"
    name = "set-iteration"
    rationale = (
        "set iteration order is runtime-dependent (hash randomization); an "
        "ordered output fed by it cannot be byte-identical across processes"
    )
    scope = _ENGINE

    def check(self, ctx: FileContext):
        for node in ctx.walk((ast.For, ast.comprehension)):
            iterable = node.iter
            if is_set_expression(iterable, ctx.module_set_names):
                yield make_finding(
                    self,
                    ctx,
                    iterable,
                    "iteration over an unordered set; wrap in sorted(...) or "
                    "iterate a deterministically ordered container",
                )


class UnstableNumpySortRule(Rule):
    """REP012: numpy argsort/sort in engine code must pin a stable kind.

    ``np.argsort`` defaults to introsort: equal keys may permute, so two
    equal x values (or scores) can swap between runs of different sizes
    — exactly the tie-break drift the determinism suite pins down.  Pass
    ``kind="stable"``.
    """

    id = "REP012"
    name = "unstable-numpy-sort"
    rationale = (
        "default numpy sorts are unstable; equal keys may permute and change "
        "tie-breaks that the byte-identity suites pin down"
    )
    scope = _ENGINE

    _NAMES = {"argsort", "sort"}
    _STABLE = {"stable", "mergesort"}

    def check(self, ctx: FileContext):
        for node in ctx.walk(ast.Call):
            name = call_name(node)
            if name not in self._NAMES:
                continue
            if isinstance(node.func, ast.Name):
                continue  # bare sort(...)/argsort(...): not numpy's
            value = node.func.value
            # np.sort/np.argsort, or ndarray method .argsort(); plain
            # list .sort() is stable by definition, so only flag the
            # method form for argsort (lists have no argsort).
            is_np = isinstance(value, ast.Name) and value.id in {"np", "numpy"}
            if not is_np and name == "sort":
                continue
            if not has_keyword(node, "kind", self._STABLE):
                yield make_finding(
                    self,
                    ctx,
                    node,
                    '{} without kind="stable"; equal keys may permute across '
                    "runs".format(name),
                )


class KeylessMergeSortRule(Rule):
    """REP013: sorts in merge/rank/top-k paths need an explicit key.

    Those paths define the engine's total order; a bare ``sorted(...)``
    leans on element ``__lt__``, which for tuples silently compares
    payload fields (trendlines, results) that have no meaningful order —
    or raises on ties.  Spell the key out so the order is the documented
    ``(score desc, position asc)`` and nothing else.
    """

    id = "REP013"
    name = "keyless-merge-sort"
    rationale = (
        "merge/rank paths define the engine's total order; an implicit "
        "element order hides which fields actually break ties"
    )
    #: The §6.3 driver ranks its survivors too, outside the package.
    scope = _ENGINE + ("benchmarks/paper/pruning.py",)

    _MARKERS = ("merge", "rank", "top")

    def check(self, ctx: FileContext):
        for node in ctx.walk(ast.Call):
            name = call_name(node)
            is_sorted = isinstance(node.func, ast.Name) and name == "sorted"
            is_method_sort = isinstance(node.func, ast.Attribute) and name == "sort"
            if not (is_sorted or is_method_sort):
                continue
            qualname = ctx.qualname(node).lower()
            if not any(marker in qualname for marker in self._MARKERS):
                continue
            if not has_keyword(node, "key"):
                yield make_finding(
                    self,
                    ctx,
                    node,
                    "sort in an ordered merge/rank path without an explicit "
                    "key=; spell out the total order",
                )


class WallClockInScoringRule(Rule):
    """REP014: no time/random in engine code.

    Scores must be pure functions of the data and the query; a
    wall-clock read or RNG draw anywhere in the engine makes reruns
    (and the cancel-then-rerun byte-identity contract) unreproducible.
    Benchmarks live outside this scope and may time freely.
    """

    id = "REP014"
    name = "wallclock-in-scoring"
    rationale = (
        "scoring must be a pure function of data and query; clocks and RNG "
        "break rerun and cancel-rerun byte-identity"
    )
    scope = _ENGINE

    _MODULES = {"time", "random"}

    def check(self, ctx: FileContext):
        for node in ctx.walk((ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            else:
                names = [(node.module or "").split(".")[0]]
            for name in names:
                if name in self._MODULES:
                    yield make_finding(
                        self,
                        ctx,
                        node,
                        "import of {!r} in engine code; scoring must not read "
                        "clocks or draw randomness".format(name),
                    )
        for node in ctx.walk(ast.Attribute):
            # np.random.* (numpy RNG reached through the module object).
            if (
                node.attr == "random"
                and isinstance(node.value, ast.Name)
                and node.value.id in {"np", "numpy"}
            ):
                yield make_finding(
                    self,
                    ctx,
                    node,
                    "np.random reached from engine code; pass data in, do not "
                    "draw it here",
                )
