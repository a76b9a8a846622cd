"""REP09x: import weight — what ``import repro`` is allowed to load.

Every pass child, pool worker, CLI run and server restart pays the
package import before its first answer; ``scipy.optimize`` alone (the
CRF *trainer's* L-BFGS) once cost more than everything else together,
and on a numpy-only install the package could not be imported at all.
This rule keeps third-party packages other than numpy out of import
time statically; ``tests/test_import_weight.py`` is the runtime proof.
"""

from __future__ import annotations

import ast
import sys

from tools.reprolint.findings import make_finding
from tools.reprolint.visitor import FileContext, Rule

#: Top-level packages a module under ``src/repro/`` may import at module
#: level besides the standard library.
_ALLOWED = {"numpy", "repro", "__future__"}


class ImportWeightRule(Rule):
    """REP091: third-party imports other than numpy are function-level.

    Flags ``import x`` / ``from x import y`` outside any function body
    (class bodies and ``try``/``if`` blocks run at import time too) when
    ``x``'s top-level package is neither the standard library, numpy
    nor this package.  An import inside the function that needs it — the
    CRF trainer's scipy — is the conforming shape.
    """

    id = "REP091"
    name = "import-weight"
    rationale = (
        "a module-level third-party import is paid by every process that "
        "imports repro, and makes the package unimportable where the "
        "optional dependency is not installed"
    )
    scope = ("src/repro/",)

    def check(self, ctx: FileContext):
        for node in ctx.walk((ast.Import, ast.ImportFrom)):
            if ctx.enclosing_function(node) is not None:
                continue
            if isinstance(node, ast.ImportFrom):
                modules = [] if node.level else [node.module or ""]
            else:
                modules = [alias.name for alias in node.names]
            for module in modules:
                package = module.partition(".")[0]
                if package in _ALLOWED or package in sys.stdlib_module_names:
                    continue
                yield make_finding(
                    self,
                    ctx,
                    node,
                    "module-level import of third-party package {!r}; import it "
                    "inside the function that needs it".format(package),
                )
