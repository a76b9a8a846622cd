# Fixture: the conforming twin of imports_bad.py; it cites ROADMAP.md.
from __future__ import annotations

import hashlib
import os.path
from collections import OrderedDict, deque
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ExecutionError
from repro.results import Match  # noqa: F401  (re-exported)
from . import sibling

if TYPE_CHECKING:
    from repro.engine.trendline import Trendline


def digest(path: str) -> str:
    return hashlib.sha256(os.path.basename(path).encode()).hexdigest()


def recent(items, memo: "OrderedDict[str, Trendline]") -> deque:
    # Names read only inside a string annotation count as used.
    return deque(items, maxlen=sibling.LIMIT)


def oracle_note() -> str:
    # Citing the test tree is fine; importing from it is not (REP094).
    return "ranked as tests/oracles/exhaustive.py ranks"


class Trainer:
    def fit(self, objective, start):
        # Function-level: only a caller that trains pays for scipy.
        try:
            from scipy.optimize import minimize
        except ImportError as exc:
            raise ExecutionError("training needs scipy") from exc
        return minimize(objective, np.asarray(start))


def ledger():
    """Citations that resolve: ``README.md`` and ``tools/reprolint/RULES.md``
    from the repo root, ``engine/parallel.py`` from ``src/repro/``.

    Not citations: a bare module name (``table.py:225``), a URL
    (https://example.org/NOTES.md) and a string that is only a path.
    """
    return open("missing/dir/file.py")
