"""Oracle-equivalence property tests for the segmentation algorithms.

The exhaustive enumerator is exact (it scores every layout, including
POSITION context), so on small inputs it is ground truth.  These tests
pin the contract of each fast algorithm against it on randomized small
trendlines:

* ``dp`` is provably optimal (Theorem 6.1) — it must match the oracle
  *exactly*;
* ``segment-tree`` and ``greedy`` are heuristics — they must never beat
  the oracle, and must land within a documented tolerance of it.

Tolerances are calibrated on seeded random walks of 10–16 points — the
hardest case for the heuristics, whose merge/local-search steps have
little structure to exploit.  Worst observed shortfalls were ~0.50
(segment-tree) and ~0.91 (greedy) on single inputs, with per-query mean
shortfalls of ~0.10 and ~0.16; the bounds below add head-room so the
tests are stable, and the aggregate-mean bounds keep them honest.
"""

import numpy as np
import pytest

from repro.algebra import builder as q
from repro.engine.chains import compile_query
from repro.engine.dynamic import solve_query
from repro.engine.greedy import greedy_run_solver
from repro.engine.segment_tree import segment_tree_run_solver
from repro.engine.trendline import build_trendline

from tests.oracles.exhaustive import exhaustive_solve_query

#: Heuristics may trail the oracle by at most this much on one input...
SEGMENT_TREE_TOLERANCE = 0.75
GREEDY_TOLERANCE = 1.2
#: ...and by at most this much on average over the random corpus.
SEGMENT_TREE_MEAN_TOLERANCE = 0.2
GREEDY_MEAN_TOLERANCE = 0.3

QUERIES = {
    "simple": q.concat(q.up(), q.down()),
    "fuzzy": q.concat(q.up(), q.down(), q.up()),
    "fuzzy-or": q.or_(q.concat(q.up(), q.down()), q.concat(q.down(), q.up())),
    "location": q.concat(q.up(x_start=0, x_end=6), q.down()),
}


def _random_trendlines(seed: int, count: int = 15):
    """Seeded random-walk trendlines of 10–16 points."""
    rng = np.random.default_rng(seed)
    trendlines = []
    for index in range(count):
        n = int(rng.integers(10, 17))
        y = rng.normal(0, 1, n).cumsum()
        trendlines.append(build_trendline("rw{}".format(index), np.arange(n, dtype=float), y))
    return trendlines


@pytest.mark.parametrize("name", sorted(QUERIES))
class TestOracleEquivalence:
    def test_dp_matches_oracle_exactly(self, name):
        query = compile_query(QUERIES[name])
        for trendline in _random_trendlines(seed=101):
            oracle = exhaustive_solve_query(trendline, query)
            dp = solve_query(trendline, query)
            assert dp.score == pytest.approx(oracle.score, abs=1e-9), trendline.key

    def test_segment_tree_within_tolerance(self, name):
        query = compile_query(QUERIES[name])
        shortfalls = []
        for trendline in _random_trendlines(seed=202):
            oracle = exhaustive_solve_query(trendline, query)
            st = solve_query(trendline, query, run_solver=segment_tree_run_solver)
            assert st.score <= oracle.score + 1e-9, trendline.key
            assert st.score >= oracle.score - SEGMENT_TREE_TOLERANCE, trendline.key
            shortfalls.append(oracle.score - st.score)
        assert np.mean(shortfalls) <= SEGMENT_TREE_MEAN_TOLERANCE

    def test_greedy_within_tolerance(self, name):
        query = compile_query(QUERIES[name])
        shortfalls = []
        for trendline in _random_trendlines(seed=303):
            oracle = exhaustive_solve_query(trendline, query)
            greedy = solve_query(trendline, query, run_solver=greedy_run_solver)
            assert greedy.score <= oracle.score + 1e-9, trendline.key
            assert greedy.score >= oracle.score - GREEDY_TOLERANCE, trendline.key
            shortfalls.append(oracle.score - greedy.score)
        assert np.mean(shortfalls) <= GREEDY_MEAN_TOLERANCE


class TestStructuredShapes:
    """On clean planted shapes every algorithm should agree with the oracle."""

    def _planted(self):
        y = np.concatenate(
            [np.linspace(0, 8, 6), np.linspace(8, 1, 6), np.linspace(1, 9, 6)]
        )
        return build_trendline("planted", np.arange(len(y), dtype=float), y)

    @pytest.mark.parametrize("run_solver", [None, segment_tree_run_solver, greedy_run_solver])
    def test_planted_udu_near_oracle(self, run_solver):
        query = compile_query(q.concat(q.up(), q.down(), q.up()))
        trendline = self._planted()
        oracle = exhaustive_solve_query(trendline, query)
        solved = solve_query(trendline, query, run_solver=run_solver)
        assert solved.score == pytest.approx(oracle.score, abs=0.05)
        assert oracle.score > 0.8  # the shape is genuinely there
