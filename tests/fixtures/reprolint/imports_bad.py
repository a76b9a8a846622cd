# Fixture: REP091 violations — third-party packages loaded at import time —
# REP092 violations: module-level imports nothing reads — REP093
# violations: citations of files that do not exist (see NOWHERE.md) — and
# REP094 violations: the package importing the trees that check it.
import json  # REP092: never read
import os.path  # REP092: binds ``os``, never read
from typing import TYPE_CHECKING, Dict  # REP092 (Dict)
from collections import OrderedDict as Ordered  # REP092: the alias is what binds

import numpy as np
import scipy.optimize  # REP091: paid by every process that imports the package
from networkx import Graph  # REP091; REP092 too: never read
from benchmarks.paper.pruning import prune_and_rank  # REP094 (and REP091, REP092)

try:
    import pandas  # REP091: a guarded import still runs at import time; REP092: only stored
except ImportError:
    pandas = None


class Trainer:
    from scipy.special import logsumexp  # REP091: class bodies run at import time

    def fit(self, objective, start):
        return scipy.optimize.minimize(objective, np.asarray(start))


def checked() -> bool:
    return TYPE_CHECKING  # a read: TYPE_CHECKING is used


def oracle_ranking(trendlines, query):
    # REP094: function-level, so REP091 lets it through, but it still ships
    # the test tree's oracle as an engine path.
    from tests.oracles.exhaustive import exhaustive_solve_query

    return [exhaustive_solve_query(t, query) for t in trendlines]


def bench_ops():
    import bench.workloads  # REP094

    return bench.workloads


def ledger():
    """Numbers for this claim live in the experiments ledger.

    The ledger is ``EXPERIMENTS_LEDGER.md`` (REP093: never written), and
    its driver is ``engine/vanished.py`` (REP093: not under src/repro/).
    """
    return "measured by benchmarks/test_bench_gone.py at scale 0.25"  # REP093
