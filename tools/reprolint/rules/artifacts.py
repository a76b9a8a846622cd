"""REP07x: artifact-store mapping lifecycle — no mmap may outlive its owner.

``engine/artifacts.py`` memory-maps persisted index blocks
(``np.memmap`` via ``_open_block``) and must verify them before serving:
format, fingerprint, digests.  Every verification step is a chance to
bail out — and every bail-out after the map is open is a chance to leak
the file mapping for the process lifetime (the same failure family
REP02x pins for shared-memory segments).  The discipline mirrors
REP021+REP023 for the mmap sources: an opened mapping must reach an
owner — returned, handed to ``ShapeIndex.from_packed`` (the index
holds the mapping as its packed block), or released through the idempotent
``_close_block`` — and no ``raise`` may sit between the open and that
ownership transfer unless a ``try`` handler/finally closes the mapping.
Runtime proof: ``tests/test_artifacts.py`` fallback suite (every
verification miss closes before returning None).
"""

from __future__ import annotations

import ast
from typing import List, Optional

from tools.reprolint.findings import make_finding
from tools.reprolint.visitor import FileContext, Rule, call_name, mentions_name

#: Calls that open a file mapping needing an owner.
_MAPPING_SOURCES = {"memmap", "_open_block", "mmap"}
#: Callables that take ownership of a mapping passed to them:
#: ``_close_block`` releases it, ``from_packed`` wraps it in an index
#: that holds it, finalizers inherit the release obligation.
_OWNERSHIP_SINKS = {"_close_block", "from_packed", "finalize", "register"}


def _mapping_calls(ctx: FileContext):
    for node in ctx.walk(ast.Call):
        if call_name(node) in _MAPPING_SOURCES:
            yield node


def _binding_name(ctx: FileContext, call: ast.Call) -> Optional[str]:
    """The local name ``x`` when the call is ``x = np.memmap(...)``."""
    parent = ctx.parent(call)
    if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
        target = parent.targets[0]
        if isinstance(target, ast.Name):
            return target.id
    if isinstance(parent, ast.AnnAssign) and isinstance(parent.target, ast.Name):
        return parent.target.id
    return None


def _reaches_owner(scope: ast.AST, name: str) -> bool:
    """True when the mapping bound to ``name`` reaches an owner in ``scope``."""
    for node in ast.walk(scope):
        # return block / yield block — the caller inherits the obligation
        if isinstance(node, (ast.Return, ast.Yield)) and node.value is not None:
            if mentions_name(node.value, name):
                return True
        # block.close() / block._mmap.close()
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "close" and mentions_name(node.func.value, name):
                return True
        # _close_block(block), ShapeIndex.from_packed(block, ...),
        # weakref.finalize(..., block)
        if isinstance(node, ast.Call) and call_name(node) in _OWNERSHIP_SINKS:
            if any(mentions_name(arg, name) for arg in node.args):
                return True
        # store[key] = block / self._blocks[key] = block
        if isinstance(node, ast.Assign) and mentions_name(node.value, name):
            for target in node.targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    return True
    return False


class MappingLifecycleRule(Rule):
    """REP071: opened mmaps reach an owner; no unguarded raise before that.

    Two findings share the id because they are one discipline seen from
    two sides.  *Ownership*: a mapping that is never returned, closed,
    registered, or wrapped into the index it backs leaks the file
    mapping until interpreter exit.  *Raise window*: a ``raise`` between
    the open and the ownership transfer leaks it on the exceptional
    path — exactly the verification-bail-out shape ``load_index`` is
    made of — unless the window sits in a ``try`` whose handler or
    finally closes the mapping.
    """

    id = "REP071"
    name = "mapping-lifecycle"
    rationale = (
        "a file mapping with no owner (or dropped by an unguarded raise "
        "between open and ownership transfer) stays mapped until "
        "interpreter exit; close it on every verification miss"
    )
    scope = ("src/repro/engine/artifacts.py",)

    def _closes(self, nodes: List[ast.stmt], name: str) -> bool:
        for statement in nodes:
            for node in ast.walk(statement):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "close"
                    and mentions_name(node.func.value, name)
                ):
                    return True
                if isinstance(node, ast.Call) and call_name(node) == "_close_block":
                    if any(mentions_name(arg, name) for arg in node.args):
                        return True
        return False

    def _guarded(self, ctx: FileContext, node: ast.AST, name: str) -> bool:
        """Is ``node`` inside a try whose cleanup closes ``name``?"""
        current = ctx.parent(node)
        while current is not None:
            if isinstance(current, ast.Try):
                cleanup: List[ast.stmt] = list(current.finalbody)
                for handler in current.handlers:
                    cleanup.extend(handler.body)
                if self._closes(cleanup, name):
                    return True
            current = ctx.parent(current)
        return False

    def check(self, ctx: FileContext):
        for call in _mapping_calls(ctx):
            parent = ctx.parent(call)
            if isinstance(parent, (ast.Return, ast.Yield)):
                continue  # ownership transfers to the caller
            name = _binding_name(ctx, call)
            scope = ctx.enclosing_function(call) or ctx.tree
            if name is None:
                if isinstance(parent, ast.Call) and call_name(parent) in _OWNERSHIP_SINKS:
                    continue
                yield make_finding(
                    self,
                    ctx,
                    call,
                    "mapping is neither bound nor returned; nothing can ever "
                    "close it",
                )
                continue
            if not _reaches_owner(scope, name):
                yield make_finding(
                    self,
                    ctx,
                    call,
                    "mapping {!r} never reaches _close_block/from_packed/return "
                    "and leaks its file mapping".format(name),
                )
                continue
            attach_line = call.lineno
            for node in ast.walk(scope):
                if not isinstance(node, ast.Raise):
                    continue
                if node.lineno <= attach_line:
                    continue
                if self._guarded(ctx, node, name):
                    continue
                yield make_finding(
                    self,
                    ctx,
                    node,
                    "raise after opening mapping {!r} leaks it; close in an "
                    "except/finally before propagating".format(name),
                )
