"""Figure 10: running time of the segmentation algorithms on five datasets.

Paper shape to reproduce: DP is slowest (quadratic in trendline length);
SegmentTree is 2–40× faster than DP; two-stage pruning shaves a further
10–30%; Greedy is fastest; DTW sits between SegmentTree and DP.

The figure's "dp" is the paper's per-end-bin recurrence, i.e. our
``kernel="loop"`` — the ordering assertions encode the *paper's*
algorithmic shape.  The matrix kernel (this repo's default) is recorded
as an extra ``dp-matrix`` column: at these suite sizes it routinely
beats the SegmentTree, which is exactly why it became the default and
why it is excluded from the paper-shape assertions.

``segment-tree`` times the per-trendline run solver (one kernel launch
per candidate); ``segment-tree-batch`` is what the engine's Score stage
actually runs — the whole collection through ``solve_many``, one
level-wise array combine per block of candidates.  The two must return
the same top 10, and the batched row must be the faster one.
"""

import time

import pytest

from repro.engine.dynamic import fuzzy_run_solver, solve_query
from repro.engine.greedy import greedy_run_solver
from repro.engine.parallel import solve_many
from repro.engine.segment_tree import segment_tree_run_solver

from benchmarks.conftest import fuzzy_query, print_table
from benchmarks.paper.baselines.dtw import rank_by_dtw
from benchmarks.paper.pruning import prune_and_rank

SUITE_NAMES = ("weather", "worms", "50words", "realestate", "haptics")

_RESULTS = {}
_TOP = {}


def _top(scored, k=10):
    scored.sort(key=lambda item: -item[1].score)
    return scored[:k]


def _rank_all(trendlines, query, run_solver=None):
    return _top(
        [(tl, solve_query(tl, query, run_solver=run_solver)) for tl in trendlines]
    )


def _run(algorithm, trendlines, query):
    if algorithm == "dp":
        return _rank_all(trendlines, query, run_solver=fuzzy_run_solver("loop"))
    if algorithm == "dp-matrix":
        return _rank_all(trendlines, query, run_solver=fuzzy_run_solver("matrix"))
    if algorithm == "segment-tree":
        return _rank_all(trendlines, query, run_solver=segment_tree_run_solver)
    if algorithm == "segment-tree-batch":
        return _top(list(zip(trendlines, solve_many(trendlines, query, "segment-tree"))))
    if algorithm == "greedy":
        return _rank_all(trendlines, query, run_solver=greedy_run_solver)
    if algorithm == "pruned":
        return prune_and_rank(list(trendlines), query, k=10)
    if algorithm == "dtw":
        return rank_by_dtw(trendlines, query, k=10)
    raise ValueError(algorithm)


ALGORITHMS = (
    "dp", "dp-matrix", "segment-tree", "segment-tree-batch", "pruned", "greedy", "dtw",
)


@pytest.mark.parametrize("suite_name", SUITE_NAMES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_fig10_runtime(benchmark, suites, suite_name, algorithm):
    trendlines = suites(suite_name)
    query = fuzzy_query(suite_name)
    started = time.perf_counter()
    result = benchmark.pedantic(
        _run, args=(algorithm, trendlines, query), rounds=1, iterations=1
    )
    _RESULTS[(suite_name, algorithm)] = time.perf_counter() - started
    assert result
    if algorithm.startswith("segment-tree"):
        _TOP[(suite_name, algorithm)] = [(tl.key, found.score) for tl, found in result]


def test_fig10_report(benchmark):
    """Assert and print the paper's ordering: greedy < st(+prune) < dp."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for suite_name in SUITE_NAMES:
        timings = {
            algorithm: _RESULTS.get((suite_name, algorithm))
            for algorithm in ALGORITHMS
        }
        if any(value is None for value in timings.values()):
            pytest.skip("runtime benchmarks did not run")
        rows.append(
            [suite_name]
            + ["{:.3f}s".format(timings[algorithm]) for algorithm in ALGORITHMS]
        )
        assert timings["segment-tree"] < timings["dp"], suite_name
        assert timings["segment-tree-batch"] < timings["segment-tree"], suite_name
        assert (
            _TOP[(suite_name, "segment-tree-batch")] == _TOP[(suite_name, "segment-tree")]
        ), suite_name
        assert timings["greedy"] <= timings["dp"], suite_name
    print_table("Figure 10: runtime (s)", ["dataset"] + list(ALGORITHMS), rows)
