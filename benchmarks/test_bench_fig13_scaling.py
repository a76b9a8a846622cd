"""Figure 13: runtime vs trendline length, query width, collection size.

Paper shapes: (a) DP grows quadratically with points while SegmentTree
grows linearly, with the crossover before ~100 points; (b) both grow
with the number of ShapeSegments — SegmentTree faster in k (k⁴ vs k) but
DP's n² term dominates at paper-scale lengths; (c) all approaches grow
linearly with the number of visualizations and the pruning margin widens
as the collection grows.

``segment-tree`` is the per-trendline run solver (one kernel launch per
candidate); ``segment-tree-batch`` is the same collection through
``solve_many`` — what the engine's Score stage runs — and must return
the same scores in less time.  "dp" here is the repo's matrix kernel,
which at the default scale's longest length (225 points) costs what one
dispatch-bound SegmentTree launch does (1.2 vs 1.4 ms per series), so (a)
always includes the paper's own length, :data:`PAPER_LENGTH`, and the
"DP loses on long trendlines" shape is asserted there.
"""

import time

import numpy as np
import pytest

from repro.algebra import builder as q
from repro.datasets.suites import suite_trendlines
from repro.engine.chains import compile_query
from repro.engine.dynamic import solve_query
from repro.engine.parallel import solve_many
from repro.engine.pruning import prune_and_rank
from repro.engine.segment_tree import segment_tree_run_solver
from repro.engine.trendline import build_trendline

from benchmarks.conftest import SCALE, print_table

_RESULTS_A = {}
_RESULTS_B = {}
_RESULTS_C = {}
_SCORES_C = {}

UDUD = compile_query(q.concat(q.up(), q.down(), q.up(), q.down()))

#: The longest worms series of Table 11 — Figure 13a's right-hand end.
PAPER_LENGTH = 900

POINT_COUNTS = tuple(
    sorted({int(n * max(SCALE, 0.25)) for n in (100, 300, 500, 700, 900)} | {PAPER_LENGTH})
)
SEGMENT_COUNTS = (2, 3, 4, 5, 6)
VIZ_COUNTS = tuple(int(n * max(SCALE, 0.25)) for n in (200, 600, 1000))


def _worms_prefix(suites, points):
    base = suites("worms")[:40]
    if base[0].n_bins < points:  # PAPER_LENGTH at a reduced scale
        base = suite_trendlines("worms", max_visualizations=40, max_length=points)
    return [
        build_trendline(tl.key, tl.bin_x[:points], tl.bin_y[:points]) for tl in base
    ]


def _solve_all(trendlines, query, run_solver=None):
    return [solve_query(tl, query, run_solver=run_solver) for tl in trendlines]


@pytest.mark.parametrize("points", POINT_COUNTS)
@pytest.mark.parametrize("algorithm", ["dp", "segment-tree", "segment-tree-batch"])
def test_fig13a_points(benchmark, suites, points, algorithm):
    trendlines = _worms_prefix(suites, points)
    if algorithm == "segment-tree-batch":
        run = lambda: solve_many(trendlines, UDUD, "segment-tree")  # noqa: E731
    else:
        solver = None if algorithm == "dp" else segment_tree_run_solver
        run = lambda: _solve_all(trendlines, UDUD, solver)  # noqa: E731
    started = time.perf_counter()
    benchmark.pedantic(run, rounds=1, iterations=1)
    _RESULTS_A[(points, algorithm)] = time.perf_counter() - started


@pytest.mark.parametrize("segments", SEGMENT_COUNTS)
@pytest.mark.parametrize("algorithm", ["dp", "segment-tree"])
def test_fig13b_segments(benchmark, suites, segments, algorithm):
    patterns = [q.up() if i % 2 == 0 else q.down() for i in range(segments)]
    query = compile_query(q.concat(*patterns)) if segments > 1 else compile_query(patterns[0])
    trendlines = suites("weather")[:30]
    solver = None if algorithm == "dp" else segment_tree_run_solver
    started = time.perf_counter()
    benchmark.pedantic(_solve_all, args=(trendlines, query, solver), rounds=1, iterations=1)
    _RESULTS_B[(segments, algorithm)] = time.perf_counter() - started


def _realestate_collection(suites, count):
    base = suites("realestate")
    if len(base) >= count:
        return base[:count]
    rng = np.random.default_rng(0)
    extra = []
    while len(base) + len(extra) < count:
        tl = base[len(extra) % len(base)]
        extra.append(
            build_trendline(
                "{}+{}".format(tl.key, len(extra)),
                tl.bin_x,
                tl.bin_y + rng.normal(0, 0.05, len(tl.bin_y)),
            )
        )
    return list(base) + extra


@pytest.mark.parametrize("count", VIZ_COUNTS)
@pytest.mark.parametrize("algorithm", ["segment-tree", "segment-tree-batch", "pruned"])
def test_fig13c_visualizations(benchmark, suites, count, algorithm):
    trendlines = _realestate_collection(suites, count)
    if algorithm == "pruned":
        run = lambda: prune_and_rank(trendlines, UDUD, k=10)  # noqa: E731
    elif algorithm == "segment-tree-batch":
        run = lambda: solve_many(trendlines, UDUD, "segment-tree")  # noqa: E731
    else:
        run = lambda: _solve_all(trendlines, UDUD, segment_tree_run_solver)  # noqa: E731
    started = time.perf_counter()
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _RESULTS_C[(count, algorithm)] = time.perf_counter() - started
    if algorithm != "pruned":
        _SCORES_C[(count, algorithm)] = [found.score for found in result]


def test_fig13_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if not (_RESULTS_A and _RESULTS_B and _RESULTS_C):
        pytest.skip("scaling benchmarks did not run")
    print_table(
        "Figure 13a: runtime vs points per visualization",
        ["points", "dp", "segment-tree", "segment-tree-batch"],
        [
            [points, "{:.3f}s".format(_RESULTS_A[(points, "dp")]),
             "{:.3f}s".format(_RESULTS_A[(points, "segment-tree")]),
             "{:.3f}s".format(_RESULTS_A[(points, "segment-tree-batch")])]
            for points in POINT_COUNTS
        ],
    )
    print_table(
        "Figure 13b: runtime vs ShapeSegments",
        ["segments", "dp", "segment-tree"],
        [
            [segments, "{:.3f}s".format(_RESULTS_B[(segments, "dp")]),
             "{:.3f}s".format(_RESULTS_B[(segments, "segment-tree")])]
            for segments in SEGMENT_COUNTS
        ],
    )
    print_table(
        "Figure 13c: runtime vs number of visualizations",
        ["visualizations", "segment-tree", "segment-tree-batch", "with pruning"],
        [
            [count, "{:.3f}s".format(_RESULTS_C[(count, "segment-tree")]),
             "{:.3f}s".format(_RESULTS_C[(count, "segment-tree-batch")]),
             "{:.3f}s".format(_RESULTS_C[(count, "pruned")])]
            for count in VIZ_COUNTS
        ],
    )
    # The engine's batched Score path: same answers, less time, at every size.
    for count in VIZ_COUNTS:
        assert _SCORES_C[(count, "segment-tree-batch")] == _SCORES_C[(count, "segment-tree")]
        assert _RESULTS_C[(count, "segment-tree-batch")] < _RESULTS_C[(count, "segment-tree")]
    # Paper shape (a): DP's growth from the smallest to largest length
    # outpaces SegmentTree's (quadratic vs linear).
    smallest, largest = POINT_COUNTS[0], POINT_COUNTS[-1]
    dp_growth = _RESULTS_A[(largest, "dp")] / max(1e-9, _RESULTS_A[(smallest, "dp")])
    st_growth = _RESULTS_A[(largest, "segment-tree")] / max(
        1e-9, _RESULTS_A[(smallest, "segment-tree")]
    )
    assert dp_growth > st_growth
    # Paper shape (a): DP is slower than SegmentTree on long trendlines.
    assert _RESULTS_A[(largest, "dp")] > _RESULTS_A[(largest, "segment-tree")]
    # ... and than the batched kernel from the default scale's longest
    # length on (there one per-trendline launch only ties with matrix DP).
    for points in POINT_COUNTS[-2:]:
        assert _RESULTS_A[(points, "dp")] > _RESULTS_A[(points, "segment-tree-batch")]
