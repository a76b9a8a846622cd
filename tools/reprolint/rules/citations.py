"""REP093: a file a module cites by name exists.

Comments and docstrings point readers at documents (``ROADMAP.md``, the
rule catalog) and at other modules (``engine/parallel.py``,
``tests/oracles/index_bounds.py``).  A citation of a file that was never
written, or was moved or deleted, sends the reader nowhere — three
modules cited an experiments ledger that did not exist.  Every ``*.md``
name, and every ``.py`` name that carries a directory, must resolve
against the repo root, ``src/repro/`` or the citing module's own
directory.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

from tools.reprolint.findings import make_finding
from tools.reprolint.visitor import FileContext, Rule

#: The checkout this tool ships in: citations resolve inside it.
_REPO = Path(__file__).resolve().parents[3]
#: A ``name.md`` or ``dir/name.py`` token that does not continue a longer
#: word, path or URL (``https://host/README.md`` is not a citation).
_CITATION_RE = re.compile(r"(?<![\w./:-])((?:[\w.-]+/)*[\w-][\w.-]*\.(?:md|py))(?![\w/-])")


def _citations(text: str):
    for match in _CITATION_RE.finditer(text):
        name = match.group(1)
        if name.endswith(".md") or "/" in name:
            yield name


def _resolves(name: str, relpath: str) -> bool:
    own = (_REPO / relpath).parent
    return any((base / name).exists() for base in (_REPO, _REPO / "src" / "repro", own))


class DanglingCitationRule(Rule):
    """REP093: ``*.md`` and ``dir/name.py`` citations name existing files.

    Scans comments (tokenize) and string constants, docstrings included
    (ast).  A bare ``name.py`` is not checked: without a directory it is
    a module's short name, not a path.  Neither is a string holding
    nothing but a path: that is data, not a citation.
    """

    id = "REP093"
    name = "dangling-citation"
    rationale = (
        "a comment or docstring that cites a missing file sends the reader "
        "nowhere; cite an existing document, or the ROADMAP item that will "
        "write it"
    )
    scope = ("src/", "tests/", "benchmarks/")

    def check(self, ctx: FileContext):
        texts = [
            (node.lineno, node.value, node)
            for node in ctx.walk(ast.Constant)
            # A string that is only a path is a value the code uses (a
            # scope probe, a file to open), not prose citing a file.
            if isinstance(node.value, str) and not _CITATION_RE.fullmatch(node.value.strip())
        ]
        try:
            for token in tokenize.generate_tokens(io.StringIO(ctx.source).readline):
                if token.type == tokenize.COMMENT:
                    texts.append((token.start[0], token.string, None))
        except tokenize.TokenError:
            pass
        for line, text, node in texts:
            for name in _citations(text):
                if _resolves(name, ctx.relpath):
                    continue
                if node is not None:
                    # The line inside a multi-line string the name sits on.
                    line = node.lineno + text[: text.index(name)].count("\n")
                yield make_finding(
                    self,
                    ctx,
                    ast.Pass(lineno=line, col_offset=0),
                    "cites {!r}, which is not a file under the repo root, "
                    "src/repro/ or this module's directory".format(name),
                    context=ctx.qualname(node) if node is not None else "",
                )
