"""REP09x: imports — what ``import repro`` is allowed to load, and why.

Every pass child, pool worker, CLI run and server restart pays the
package import before its first answer; ``scipy.optimize`` alone (the
CRF *trainer's* L-BFGS) once cost more than everything else together,
and on a numpy-only install the package could not be imported at all.
REP091 keeps third-party packages other than numpy out of import time
statically; ``tests/test_import_weight.py`` is the runtime proof.
REP092 flags module-level imports nothing in the module uses — the
check ruff's F401 makes, for trees where ruff is not installed.
"""

from __future__ import annotations

import ast
import re
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


#: ``# noqa`` (every code) or a ``# noqa: ...`` list naming F401.
_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def _noqa_f401(line: str) -> bool:
    match = _NOQA_RE.search(line)
    if match is None:
        return False
    codes = match.group("codes")
    return codes is None or "F401" in codes.upper()


def _annotation_names(tree: ast.AST):
    """Names read inside string annotations (``x: "OrderedDict[int, T]"``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                for name in ast.walk(parsed):
                    if isinstance(name, ast.Name):
                        yield name.id


class UnusedImportRule(Rule):
    """REP092: a module-level import binds a name the module reads.

    Flags each name a module-level ``import`` / ``from ... import``
    binds (``from __future__`` and star imports aside) that no ``Name``
    in the module reads and no string annotation mentions.  A re-export
    says so with ``# noqa: F401`` on its line; package ``__init__.py``
    files, which exist to re-export, are out of scope.
    """

    id = "REP092"
    name = "unused-import"
    rationale = (
        "an import nothing reads is paid by every process that imports the "
        "module, and it hides which modules really depend on each other — "
        "a deleted caller leaves it behind"
    )
    scope = ("src/repro/",)

    def applies(self, relpath: str) -> bool:
        return super().applies(relpath) and not relpath.endswith("__init__.py")

    def check(self, ctx: FileContext):
        used = {
            node.id
            for node in ctx.walk(ast.Name)
            if not isinstance(node.ctx, ast.Store)
        }
        used.update(_annotation_names(ctx.tree))
        for node in ctx.walk((ast.Import, ast.ImportFrom)):
            if ctx.qualname(node):
                continue  # inside a function or class body
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name.partition(".")[0]
                if bound in used:
                    continue
                if _noqa_f401(ctx.source_line(node.lineno)) or _noqa_f401(
                    ctx.source_line(alias.lineno)
                ):
                    continue
                yield make_finding(
                    self,
                    ctx,
                    alias,
                    "module-level import {!r} is never used; delete it, or mark a "
                    "re-export with '# noqa: F401'".format(bound),
                )
