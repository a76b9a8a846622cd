"""Parallel execution and result caching: the repo's first perf trajectory.

Measurements on the Figure 13 scaling suites:

* **sharded ranking** — sequential vs ``workers=N`` (the process pool
  over the shared-memory collection, shards as index ranges) on one
  fuzzy query over the 50words collection, asserting byte-identical
  top-k and recording the speedup;
* **result caching** — cold vs warm ``execute`` over the same table and
  query, recording the latency ratio and the cache hit rate;
* **batch amortization** — ``execute_many`` over all of a suite's fuzzy
  queries vs issuing them one at a time on a fresh engine;
* **DP kernel** — single-trendline fuzzy segmentation, loop vs matrix
  transition kernel (``kernel=`` on the engine), at n=500 bins (the
  asserted ≥3× point) and a larger scaled n (recorded only) — the
  per-kernel numbers the pool-level measurements above sit on — plus
  the tile-shared arctan/transform delta at large n (``SHARE_ATAN``).

Speedups are *recorded*; the one gated claim (the pool within 1.25x of
sequential with two or more cores) only catches a pool that stopped
scaling.  Correctness — identical results for any worker count, and
cache hits on repeats — is asserted unconditionally.  With
``REPRO_BENCH_JSON`` set, every number lands in a ``BENCH_*.json``
artifact (see benchmarks/conftest.py).
"""

import os
import time

import numpy as np
import pytest

from repro.data.visual_params import VisualParams
from repro.datasets.suites import SUITES, suite_table, suite_trendlines
from repro.engine.chains import compile_query
from repro.engine.dynamic import fuzzy_run_solver, solve_query
from repro.engine.executor import ShapeSearchEngine
from repro.engine.parallel import WorkerPool, default_workers
from repro.engine.trendline import build_trendline
from repro.parser import parse

from benchmarks.conftest import SCALE, fuzzy_query, print_table, record_result

_RESULTS = {}

#: At least two workers so the sharded path (not the inline fallback) is
#: measured even on single-core CI boxes; capped at four for fairness.
WORKERS = max(2, min(4, default_workers()))
PARAMS = VisualParams(z="z", x="x", y="y")

MODES = ["sequential", "process"]


def _signature(matches):
    return [(m.key, m.score) for m in matches]


def _spin(count):
    total = 0
    for value in range(count):
        total += value
    return total


def _host_parallelism(count=2_000_000):
    """How many cores two processes get right now, from 1.0 to 2.0.

    ``os.cpu_count()`` counts vCPUs; on a shared host a neighbour can
    hold the second one, and then no pool can beat the caller.
    """
    started = time.perf_counter()
    _spin(count)
    alone = time.perf_counter() - started
    with WorkerPool(workers=2) as pool:
        pool.map(_spin, [1, 1])  # both workers started before the clock
        started = time.perf_counter()
        pool.map(_spin, [count, count])
        together = time.perf_counter() - started
    return 2 * alone / max(together, 1e-9)


def _make_engine(mode):
    return ShapeSearchEngine(workers=1 if mode == "sequential" else WORKERS)


_RANKING = []


def _ranking_collection():
    """The 50words suite at four times the default scale's collection.

    Under the batched Score kernel the default 226 series are a 37 ms
    sequential pass — less than three of the process pool's ~15 ms task
    round trips, so a single-shot ``process <= 1.25 x sequential`` check
    on it times those round trips rather than how the pool scales.
    """
    if not _RANKING:
        spec = SUITES["50words"]
        _RANKING.extend(
            suite_trendlines(
                "50words",
                max_visualizations=max(40, int(spec.visualizations * SCALE * 4)),
                max_length=max(120, int(spec.length * SCALE)),
            )
        )
    return _RANKING


@pytest.mark.parametrize("mode", MODES)
def test_parallel_speedup(benchmark, mode):
    trendlines = _ranking_collection()
    query = fuzzy_query("50words")
    engine = _make_engine(mode)
    # Warm the pool (and, for the pool, publish the collection) outside
    # the timed region: sessions pay those costs once, not per query.
    engine.rank(trendlines, query, k=10)

    def run():
        return engine.rank(trendlines, query, k=10)

    started = time.perf_counter()
    matches = benchmark.pedantic(run, rounds=1, iterations=1)
    best = time.perf_counter() - started
    # Best of three: on a shared host one descheduled slice of a ~40 ms
    # run must not decide the gated claim in test_parallel_report.
    for _ in range(2):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    _RESULTS[("rank", mode)] = best
    _RESULTS[("matches", mode)] = _signature(matches)
    engine.close()


def test_parallel_results_byte_identical(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    sequential = _RESULTS.get(("matches", "sequential"))
    if sequential is None:
        pytest.skip("speedup benchmarks did not run")
    for mode in MODES[1:]:
        assert _RESULTS[("matches", mode)] == sequential, mode


def test_cache_hit_rate(benchmark):
    table = suite_table("weather", max_visualizations=30, max_length=120)
    query = parse(SUITES["weather"].fuzzy_queries[0])
    engine = ShapeSearchEngine(cache=True)

    def cold():
        return engine.run(table, PARAMS, query, k=10)

    started = time.perf_counter()
    first = benchmark.pedantic(cold, rounds=1, iterations=1)
    _RESULTS[("cache", "cold")] = time.perf_counter() - started

    started = time.perf_counter()
    second = engine.run(table, PARAMS, query, k=10)
    _RESULTS[("cache", "warm")] = time.perf_counter() - started

    assert _signature(first) == _signature(second)
    assert second.stats.trendline_cache_hit and second.stats.plan_cache_hit
    stats = engine.cache.stats
    assert stats.hits >= 2  # one trendline hit + one plan hit on the repeat
    _RESULTS[("cache", "hit_rate")] = stats.hit_rate


def test_batch_amortization(benchmark):
    table = suite_table("weather", max_visualizations=30, max_length=120)
    queries = [parse(text) for text in SUITES["weather"].fuzzy_queries]

    def one_at_a_time():
        return [
            ShapeSearchEngine().run(table, PARAMS, query, k=10) for query in queries
        ]

    started = time.perf_counter()
    individual = benchmark.pedantic(one_at_a_time, rounds=1, iterations=1)
    _RESULTS[("batch", "individual")] = time.perf_counter() - started

    engine = ShapeSearchEngine()
    started = time.perf_counter()
    batched = engine.run_many(table, PARAMS, queries, k=10)
    _RESULTS[("batch", "batched")] = time.perf_counter() - started

    assert [_signature(r) for r in batched] == [_signature(r) for r in individual]


#: The asserted DP-kernel measurement point (the paper-scale trendline
#: length where interpreter overhead dominates the loop kernel) and the
#: required advantage of the matrix kernel there.
DP_KERNEL_N = 500
DP_KERNEL_TARGET = 3.0


def _dp_kernel_times(n, rounds=3):
    """Best-of-``rounds`` single-trendline DP times per kernel at ``n`` bins.

    Returns ``(loop_s, matrix_s)`` and asserts the two kernels returned
    byte-identical scores and placements — the identity that makes the
    loop kernel the matrix kernel's oracle.
    """
    rng = np.random.default_rng(20)
    trendline = build_trendline(
        "kernel-bench", np.arange(n, dtype=float), rng.normal(0, 1, n).cumsum()
    )
    compiled = compile_query(parse("[p=up][p=down][p=up]"))
    times = {}
    results = {}
    for kernel in ("loop", "matrix"):
        solver = fuzzy_run_solver(kernel)
        best = float("inf")
        for _ in range(rounds):
            started = time.perf_counter()
            results[kernel] = solve_query(trendline, compiled, run_solver=solver)
            best = min(best, time.perf_counter() - started)
        times[kernel] = best
    loop_result, matrix_result = results["loop"], results["matrix"]
    assert matrix_result.score == loop_result.score
    assert [
        (p.start, p.end, p.score) for p in matrix_result.solution.placements
    ] == [(p.start, p.end, p.score) for p in loop_result.solution.placements]
    return times["loop"], times["matrix"]


def test_dp_kernel_microbench(benchmark):
    """Loop vs matrix DP kernel on one trendline (the per-candidate hot path).

    The n=500 point asserts the ≥3× matrix-kernel advantage — a pure
    single-core vectorization claim, so it holds on any hardware and any
    REPRO_BENCH_SCALE; a larger scaled n is recorded alongside to track
    the bandwidth-bound regime where slope sharing is the remaining
    lever.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    loop_s, matrix_s = _dp_kernel_times(DP_KERNEL_N)
    speedup = loop_s / max(matrix_s, 1e-9)
    large_n = max(DP_KERNEL_N, int(2000 * SCALE))
    large_loop_s, large_matrix_s = _dp_kernel_times(large_n)
    large_speedup = large_loop_s / max(large_matrix_s, 1e-9)
    print_table(
        "DP kernel: single trendline, [p=up][p=down][p=up]",
        ["bins", "loop", "matrix", "speedup"],
        [
            [DP_KERNEL_N, "{:.4f}s".format(loop_s), "{:.4f}s".format(matrix_s),
             "{:.2f}x".format(speedup)],
            [large_n, "{:.4f}s".format(large_loop_s), "{:.4f}s".format(large_matrix_s),
             "{:.2f}x".format(large_speedup)],
        ],
    )
    record_result(
        "dp_kernel",
        {
            "n_bins": DP_KERNEL_N,
            "loop_s": loop_s,
            "matrix_s": matrix_s,
            "speedup": speedup,
            "large_n_bins": large_n,
            "large_loop_s": large_loop_s,
            "large_matrix_s": large_matrix_s,
            "large_speedup": large_speedup,
            "target": DP_KERNEL_TARGET,
        },
    )
    assert speedup >= DP_KERNEL_TARGET, (
        "matrix kernel {:.2f}x at n={} (target {}x)".format(
            speedup, DP_KERNEL_N, DP_KERNEL_TARGET
        )
    )


def _atan_sharing_times(n, rounds=3):
    """Best-of-``rounds`` matrix-kernel times with tile-shared vs
    per-layer arctan transforms, asserting byte-identical results."""
    from repro.engine import dynamic as dynamic_module

    rng = np.random.default_rng(21)
    trendline = build_trendline(
        "atan-bench", np.arange(n, dtype=float), rng.normal(0, 1, n).cumsum()
    )
    compiled = compile_query(parse("[p=up][p=flat][p=down][p=up]"))
    times = {}
    results = {}
    original = dynamic_module.SHARE_ATAN
    try:
        for _ in range(rounds):
            for flag in (False, True):
                dynamic_module.SHARE_ATAN = flag
                started = time.perf_counter()
                results[flag] = solve_query(trendline, compiled, kernel="matrix")
                elapsed = time.perf_counter() - started
                times[flag] = min(times.get(flag, float("inf")), elapsed)
    finally:
        dynamic_module.SHARE_ATAN = original
    assert results[True].score == results[False].score
    assert [
        (p.start, p.end, p.score) for p in results[True].solution.placements
    ] == [(p.start, p.end, p.score) for p in results[False].solution.placements]
    return times[False], times[True]


def test_dp_atan_sharing_large_n(benchmark):
    """Tile-shared arctan/transform vs per-layer, in the large-n regime.

    At n ≳ 3000 both DP kernels are bandwidth-bound on the slope
    algebra (the PR 3 known limit); sharing the arctan and the Table 5
    transform across a tile's slope-based layers trims the per-layer
    array passes.  The delta is *recorded* (machine-dependent); byte
    identity between the two paths is asserted unconditionally.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    large_n = max(3000, int(4000 * SCALE))
    private_s, shared_s = _atan_sharing_times(large_n)
    speedup = private_s / max(shared_s, 1e-9)
    print_table(
        "DP matrix kernel: per-layer vs tile-shared transform",
        ["bins", "per-layer", "tile-shared", "speedup"],
        [
            [large_n, "{:.4f}s".format(private_s), "{:.4f}s".format(shared_s),
             "{:.2f}x".format(speedup)],
        ],
    )
    record_result(
        "dp_kernel",
        {
            "atan_n_bins": large_n,
            "atan_private_s": private_s,
            "atan_shared_s": shared_s,
            "atan_sharing_speedup": speedup,
        },
    )


#: CI-noise slack on the index-beats-full-scan claim: the assert only
#: demands indexed latency within 1.25x of the full scan (i.e. tolerates
#: noise), while the recorded speedup tracks the real advantage.
_INDEX_SPEEDUP_SLACK = 1.25


def test_shape_index(benchmark):
    """Indexed vs full-scan top-k on a smooth many-candidate collection.

    The shape index's home turf, at 4x the default suite scale: hundreds
    of locally smooth trendlines (monotone declines with a handful of
    genuine rise-then-fall shapes) where the pyramid bounds are tight,
    so IndexPrune discards most candidates before the DP runs.  Records
    the one-time build cost, the pruned fraction, and indexed vs full
    rank latency; asserts byte-identical results unconditionally and the
    latency claim with generous CI slack.  (On noise-dominated series
    bounds straddle zero slope and pruning power vanishes — that regime
    is covered by the identity tests, not claimed here.)
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    from repro.engine.parallel import solve_many
    from repro.engine.shape_index import ShapeIndex, prune_candidates

    count = max(320, int(1280 * SCALE))
    length = max(160, int(640 * SCALE))
    rng = np.random.default_rng(30)
    half = length // 2
    trendlines = []
    for index in range(count):
        if index % 31 == 0:
            y = np.concatenate(
                [np.linspace(0, 10, half), np.linspace(10, 0, length - half)]
            )
        else:
            y = np.linspace(10, 0, length) + rng.normal(0, 0.05, length)
        trendlines.append(
            build_trendline(
                "s{:05d}".format(index), np.arange(length, dtype=float), y
            )
        )
    query = compile_query(parse("[p=up][p=down]"))

    started = time.perf_counter()
    index = ShapeIndex.build(trendlines)
    build_s = time.perf_counter() - started
    assert index.indexed == count

    full_engine = ShapeSearchEngine()
    indexed_engine = ShapeSearchEngine(index=True)
    full = full_engine.rank(trendlines, query, k=10)  # warm (and correctness)
    indexed = indexed_engine.rank(trendlines, query, k=10)  # warm + index build
    assert _signature(full) == _signature(indexed)
    stats = indexed_engine.last_stats
    assert stats.index_pruned > 0
    pruned_fraction = stats.index_pruned / max(stats.index_candidates, 1)

    full_s = indexed_s = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        full_engine.rank(trendlines, query, k=10)
        full_s = min(full_s, time.perf_counter() - started)
        started = time.perf_counter()
        indexed_engine.rank(trendlines, query, k=10)
        indexed_s = min(indexed_s, time.perf_counter() - started)

    # Where the indexed time goes: the pyramid levels (the coarse pass
    # up front, the finest on the rows still alive) and the rounds' exact
    # solves, timed on their own.
    levels_s = rounds_s = float("inf")
    for _ in range(3):
        solving = 0.0

        def timed_block(block):
            nonlocal solving
            started = time.perf_counter()
            results = solve_many(block, query, indexed_engine.algorithm)
            solving += time.perf_counter() - started
            return results

        started = time.perf_counter()
        prune_candidates(trendlines, index, query, 10, solve_many=timed_block)
        elapsed = time.perf_counter() - started
        levels_s = min(levels_s, elapsed - solving)
        rounds_s = min(rounds_s, solving)

    speedup = full_s / max(indexed_s, 1e-9)
    print_table(
        "Shape index: {} smooth series x {} points, [p=up][p=down], k=10".format(
            count, length
        ),
        ["path", "runtime", "speedup", "pruned"],
        [
            ["full scan", "{:.3f}s".format(full_s), "1.00x", "-"],
            ["indexed", "{:.3f}s".format(indexed_s), "{:.2f}x".format(speedup),
             "{:.1%}".format(pruned_fraction)],
            ["  pyramid levels", "{:.3f}s".format(levels_s), "-", "-"],
            ["  round solves", "{:.3f}s".format(rounds_s), "-", "-"],
            ["index build (one-time)", "{:.3f}s".format(build_s), "-", "-"],
        ],
    )
    record_result(
        "index",
        {
            "visualizations": count,
            "length": length,
            "build_s": build_s,
            "pruned_fraction": pruned_fraction,
            "full_rank_s": full_s,
            "indexed_rank_s": indexed_s,
            "levels_s": levels_s,
            "rounds_s": rounds_s,
            "speedup": speedup,
        },
    )
    # The sublinear claim, with CI-noise slack: a pruned pass over a
    # collection this smooth must not lose to the full scan.
    if SCALE >= 0.25:
        assert full_s >= indexed_s / _INDEX_SPEEDUP_SLACK, (
            "indexed rank {:.3f}s vs full scan {:.3f}s".format(indexed_s, full_s)
        )


def test_parallel_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if ("rank", "sequential") not in _RESULTS:
        pytest.skip("parallel benchmarks did not run")
    sequential = _RESULTS[("rank", "sequential")]
    rows = []
    speedups = {}
    for mode in MODES:
        elapsed = _RESULTS[("rank", mode)]
        speedups[mode] = sequential / max(elapsed, 1e-9)
        rows.append(
            [
                mode,
                1 if mode == "sequential" else WORKERS,
                "{:.3f}s".format(elapsed),
                "{:.2f}x".format(speedups[mode]),
            ]
        )
    print_table(
        "Parallel ranking: 50words suite, fuzzy query, k=10",
        ["plan", "workers", "runtime", "speedup"],
        rows,
    )
    # The Fig. 13 scaling claim: with real cores to scale onto, the
    # zero-copy process pool must not lose to scoring in the caller
    # (generous slack for CI noise).  On a single core — or a second vCPU
    # a neighbour holds — the pool is pure overhead, and below the
    # default workload scale the millisecond-sized run is noise-dominated,
    # so the claim is only checked when the host and workload can express
    # it; it is always *recorded* (speedup below).
    parallelism = _host_parallelism()
    if (os.cpu_count() or 1) >= 2 and parallelism >= 1.6 and SCALE >= 0.25:
        assert (
            _RESULTS[("rank", "process")]
            <= _RESULTS[("rank", "sequential")] * 1.25
        )
    record_result(
        "parallel",
        {
            "workers": WORKERS,
            "cpu_count": os.cpu_count(),
            "runtime_s": {mode: _RESULTS[("rank", mode)] for mode in MODES},
            "speedup": speedups,
            "host_parallelism": parallelism,
        },
    )
    print_table(
        "Result caching: weather suite, repeated query",
        ["cold", "warm", "warm/cold", "cache hit rate"],
        [
            [
                "{:.3f}s".format(_RESULTS[("cache", "cold")]),
                "{:.3f}s".format(_RESULTS[("cache", "warm")]),
                "{:.2f}".format(
                    _RESULTS[("cache", "warm")] / max(_RESULTS[("cache", "cold")], 1e-9)
                ),
                "{:.1%}".format(_RESULTS[("cache", "hit_rate")]),
            ]
        ],
    )
    print_table(
        "Batch amortization: weather suite, {} fuzzy queries".format(
            len(SUITES["weather"].fuzzy_queries)
        ),
        ["one at a time", "execute_many", "ratio"],
        [
            [
                "{:.3f}s".format(_RESULTS[("batch", "individual")]),
                "{:.3f}s".format(_RESULTS[("batch", "batched")]),
                "{:.2f}".format(
                    _RESULTS[("batch", "batched")]
                    / max(_RESULTS[("batch", "individual")], 1e-9)
                ),
            ]
        ],
    )
    record_result(
        "cache",
        {
            "cold_s": _RESULTS[("cache", "cold")],
            "warm_s": _RESULTS[("cache", "warm")],
            "hit_rate": _RESULTS[("cache", "hit_rate")],
        },
    )
    record_result(
        "batch",
        {
            "individual_s": _RESULTS[("batch", "individual")],
            "batched_s": _RESULTS[("batch", "batched")],
        },
    )
    # The warm path skips EXTRACT/GROUP and compilation entirely; even
    # with ranking dominating it should never be meaningfully slower.
    assert _RESULTS[("cache", "warm")] <= _RESULTS[("cache", "cold")] * 1.5
