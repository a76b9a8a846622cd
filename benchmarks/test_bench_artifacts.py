"""Artifact store + block-batched bounds: cold-start-free sublinear search.

Two claims from the PR 9 tentpole, measured at 10^4 candidates (10^5
behind ``REPRO_BENCH_SCALE>=1`` — the block grows to hundreds of MB):

* **mmap load beats rebuild** — serving a persisted index through
  :func:`repro.engine.artifacts.load_index` (manifest + digest
  verification + ``np.memmap``) must be far cheaper than rebuilding the
  pyramid from trendlines, because that is the whole point of the disk
  tier: a second process pays a verified map, not an O(n * W^2) build.
* **batched bounds beat the per-trendline loop** — one coarse max-plus
  DP per pyramid level across all candidates
  (:meth:`ShapeIndex.upper_bounds`) against the scalar oracle
  (``tests/oracles/index_bounds.py``) called per candidate.  Timings
  are best-of-``ROUNDS`` for both sides: the first batched call on a
  freshly mapped block additionally pays its page faults (reported as
  ``batched_cold_s``), which matches production use where one index
  serves many queries.

Byte identity between the two bound paths is asserted unconditionally;
the speedup floors only at the default workload scale where the runs
are large enough to be meaningfully timed.
"""

import time

import numpy as np

from repro.algebra import builder as q
from repro.engine.artifacts import load_index, save_index
from repro.engine.executor import ShapeSearchEngine
from repro.engine.shape_index import ShapeIndex
from repro.engine.trendline import build_trendline

from benchmarks.conftest import SCALE, print_table, record_result
from tests.oracles import index_bounds as bounds_oracle

QUERY = q.concat(q.up(), q.down())

#: Candidate-count tiers: 10^4 always (scaled down only below the
#: default smoke scale), 10^5 at the paper-scale run.
SIZES = [max(1_000, int(10_000 * min(1.0, SCALE / 0.25)))]
if SCALE >= 1.0:
    SIZES.append(100_000)

BINS = 24
ROUNDS = 5

#: The batched kernel replaces ~BINS-level Python dispatch per candidate
#: with a handful of (candidates, W, W) einsum-free numpy passes; 5x is
#: the claim the ISSUE pins at 10^4 candidates, with real headroom.
BATCHED_WIN = 5.0
#: Verified mmap load vs pyramid rebuild: the load is one sequential
#: digest pass + a map (timed before anything cuts entry views), the
#: rebuild a class-batched O(n^2) sweep per trendline — 7-12x here.
LOAD_WIN = 2.0


def _collection(count):
    rng = np.random.default_rng(421)
    x = np.arange(BINS, dtype=float)
    return [
        build_trendline("t{:06d}".format(i), x, rng.normal(0, 1, BINS).cumsum())
        for i in range(count)
    ]


def _best_of(rounds, fn):
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - started)
    return min(times), result


def test_artifact_store_and_batched_bounds(benchmark, tmp_path):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    compiled = ShapeSearchEngine()._compile(QUERY)
    rows = []
    payload = {"bins": BINS, "rounds": ROUNDS, "sizes": {}}

    for count in SIZES:
        trendlines = _collection(count)

        started = time.perf_counter()
        index = ShapeIndex.build(trendlines)
        build_s = time.perf_counter() - started

        key = ("bench-artifacts", count)
        save_index(tmp_path, key, index, "fp{}".format(count))
        load_s, loaded = _best_of(
            ROUNDS, lambda: load_index(tmp_path, key, "fp{}".format(count))
        )
        assert loaded is not None and len(loaded) == count

        started = time.perf_counter()
        batched_cold = loaded.upper_bounds(compiled)
        batched_cold_s = time.perf_counter() - started
        batched_s, batched = _best_of(
            ROUNDS, lambda: loaded.upper_bounds(compiled)
        )
        loop_s, loop = _best_of(
            ROUNDS,
            lambda: bounds_oracle.upper_bounds(loaded, compiled),
        )
        assert batched.tobytes() == loop.tobytes()
        assert batched_cold.tobytes() == loop.tobytes()

        load_speedup = build_s / max(load_s, 1e-9)
        batched_speedup = loop_s / max(batched_s, 1e-9)
        rows.append([
            count,
            "{:.3f}s".format(build_s),
            "{:.3f}s".format(load_s),
            "{:.1f}x".format(load_speedup),
            "{:.3f}s".format(loop_s),
            "{:.3f}s".format(batched_s),
            "{:.1f}x".format(batched_speedup),
        ])
        payload["sizes"][str(count)] = {
            "build_s": build_s,
            "load_s": load_s,
            "load_speedup": load_speedup,
            "loop_s": loop_s,
            "batched_s": batched_s,
            "batched_cold_s": batched_cold_s,
            "batched_speedup": batched_speedup,
        }

        # Sub-default scales shrink the workload into timer noise; at the
        # default smoke scale and above both wins must hold on any box.
        if SCALE >= 0.25:
            assert batched_speedup >= BATCHED_WIN, (
                "batched bounds {:.4f}s vs loop {:.4f}s at {} candidates "
                "(need >= {}x)".format(batched_s, loop_s, count, BATCHED_WIN)
            )
            assert load_speedup >= LOAD_WIN, (
                "mmap load {:.4f}s vs rebuild {:.4f}s at {} candidates "
                "(need >= {}x)".format(load_s, build_s, count, LOAD_WIN)
            )

    print_table(
        "Artifact store + batched bounds ({} bins/candidate)".format(BINS),
        ["candidates", "build", "mmap load", "vs build",
         "scalar loop", "batched", "vs loop"],
        rows,
    )
    record_result("artifacts", payload)
