# Fixture: the conforming twin of imports_bad.py.
from __future__ import annotations

import hashlib
import os.path
from collections import deque

import numpy as np

from repro.errors import ExecutionError
from . import sibling


class Trainer:
    def fit(self, objective, start):
        # Function-level: only a caller that trains pays for scipy.
        try:
            from scipy.optimize import minimize
        except ImportError as exc:
            raise ExecutionError("training needs scipy") from exc
        return minimize(objective, np.asarray(start))
