# Fixture: the conforming twin of imports_bad.py.
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


class Trainer:
    def fit(self, objective, start):
        # Function-level: only a caller that trains pays for scipy.
        try:
            from scipy.optimize import minimize
        except ImportError as exc:
            raise ExecutionError("training needs scipy") from exc
        return minimize(objective, np.asarray(start))
