"""REP06x: index pruning — every discard routes through the floor seam.

The shape index's exactness argument has exactly one load-bearing
inequality: a candidate is discarded iff its upper bound falls
*strictly below* the running top-k floor, and that comparison lives in
:func:`repro.engine.shape_index.survives_floor` (ties survive; the
clamp in the bound keeps the verdict meaningful).  The byte-identity
suite proves that one predicate exact.  An ad-hoc ``upper < floor``
written anywhere else re-states the inequality by hand — and the first
restated copy that flips ``<`` to ``<=``, or compares before the clamp,
silently drops true top-k members with no test pointed at it.
"""

from __future__ import annotations

import ast

from tools.reprolint.findings import make_finding
from tools.reprolint.visitor import FileContext, Rule, call_name

#: The one function allowed to compare bounds against the floor.
_SEAM = "survives_floor"

#: numpy ufuncs that spell a comparison as a call — writing
#: ``np.greater_equal(bounds, floor)`` inline is the same bypass as the
#: operator form, just harder to grep for.
_COMPARISON_CALLS = {"greater", "greater_equal", "less", "less_equal"}


def _names_floor(node: ast.AST) -> bool:
    """True when the subtree reads any variable whose name says floor."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and "floor" in child.id.lower():
            return True
    return False


def _inside_seam(ctx: FileContext, node: ast.AST) -> bool:
    function = ctx.enclosing_function(node)
    return function is not None and function.name == _SEAM


class FloorSeamRule(Rule):
    """REP061: floor comparisons happen in ``survives_floor`` only.

    Flags any comparison — operator form or numpy ufunc call — that
    involves a ``*floor*`` name outside the seam itself.  Conforming
    code asks ``survives_floor(upper, floor)`` and branches on the
    verdict; it never re-derives the inequality.
    """

    id = "REP061"
    name = "floor-seam"
    rationale = (
        "discard-vs-keep is exact only because one audited predicate "
        "(survives_floor) decides it; an inline floor comparison is an "
        "unproven second copy of that inequality"
    )
    scope = (
        "src/repro/engine/shape_index.py",
        "benchmarks/paper/pruning.py",
        "src/repro/engine/pipeline.py",
    )

    def check(self, ctx: FileContext):
        for node in ctx.walk(ast.Compare):
            if _inside_seam(ctx, node) or not _names_floor(node):
                continue
            yield make_finding(
                self,
                ctx,
                node,
                "inline floor comparison; route the decision through "
                "survives_floor(upper, floor)",
            )
        for node in ctx.walk(ast.Call):
            if call_name(node) not in _COMPARISON_CALLS:
                continue
            if _inside_seam(ctx, node) or not _names_floor(node):
                continue
            yield make_finding(
                self,
                ctx,
                node,
                "{}() comparison against the floor; route the decision "
                "through survives_floor(upper, floor)".format(call_name(node)),
            )
