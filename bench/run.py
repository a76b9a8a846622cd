"""The benchmark harness: ``python -m bench.run [--workload W] --seed N``.

One command generates the inputs from the seed, runs the workloads as
fresh-process passes, checks the answers against a sequential oracle and
prints every end-to-end metric by name with its unit; ``--trace 1`` does
a separate traced run that prints the per-layer metrics and writes the
spans.  The last stdout line is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``) — the form the driver reads.

Run structure (see bench/README.md for the measurements behind it):

* a *pass* is one fresh child process: cold set-up, N timed ops, exit;
* ``--seconds`` buys one pass per 3 s (5 s for ``scale_scan``) — the op
  list is fixed, so run length is a number of passes, never a deadline
  inside one;
* with several workloads the passes go round-robin, so a slow phase of
  the host lands on one pass of each workload, not on every pass of one;
* an op's latency is its minimum over the passes; ``p50_ms``/``p90_ms``
  are percentiles over the N ops, so the tail is slow *queries*, not
  scheduler jitter.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Nominal timed length of one pass at ``--scale full`` (bench/gen.py
#: sizes the tables for it); ``--seconds`` is spent in units of it.
#: ``scale_scan``'s ops cost ~65 ms of pool round trips whatever the table
#: size, so its passes are longer and ``--seconds`` buys fewer of them.
PASS_SECONDS = {"adhoc_scan": 3.0, "served_dashboard": 3.0, "scale_scan": 5.0,
                "tail_append": 3.0}
#: A pass that has not finished by then is killed; its ops count as failed.
PASS_TIMEOUT_S = 60.0
#: All passes of one invocation share this much; later passes get what
#: is left (the driver allows a run 180 s).
RUN_BUDGET_S = 150.0

#: name -> (unit, better); the names BENCHMARK.json lists as end_to_end.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "p50_ms": ("ms", "lower"),
    "p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}


def child_env(workdir: str) -> Dict[str, str]:
    """One BLAS thread, a fixed hash seed, temp files inside the checkout."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=workdir,
    )
    return env


@contextlib.contextmanager
def workdir() -> Iterator[str]:
    """A scratch directory under ``.bench_work/``, removed on the way out."""
    WORK.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="run-", dir=str(WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _shm_names() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _group_gone(process: subprocess.Popen, grace: float) -> bool:
    """Wait up to ``grace`` seconds for the child's whole process group."""
    deadline = time.monotonic() + grace
    while True:
        try:
            if process.poll() is not None:
                os.killpg(process.pid, 0)
        except ProcessLookupError:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)


def _reap_group(process: subprocess.Popen, before: set) -> None:
    """Nothing a pass started may outlive it: wait, then TERM, then KILL."""
    forced = False
    for sig in (None, signal.SIGTERM, signal.SIGKILL):
        if sig is not None:
            try:
                os.killpg(process.pid, sig)
            except ProcessLookupError:
                break
            forced = True
        if _group_gone(process, 2.0):
            break
    if not forced:
        return
    # A killed group takes its resource tracker with it: unlink the
    # segments that appeared while it ran (ours by uid, psm_* by name).
    for name in _shm_names() - before:
        path = os.path.join("/dev/shm", name)
        with contextlib.suppress(OSError):
            if name.startswith("psm_") and os.stat(path).st_uid == os.getuid():
                os.unlink(path)


def run_child(spec: dict, work: str, timeout: float = PASS_TIMEOUT_S) -> Optional[dict]:
    """Run one pass child to the end; ``None`` when it crashed or hung."""
    spec_path = os.path.join(work, "spec.json")
    spec = dict(spec, out=os.path.join(work, "out.json"))
    with contextlib.suppress(FileNotFoundError):
        os.unlink(spec["out"])
    with open(spec_path, "w") as handle:
        json.dump(spec, handle)
    before = _shm_names()
    process = subprocess.Popen(
        [sys.executable, "-m", "bench.child", spec_path],
        cwd=str(ROOT), env=child_env(work), stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        code = process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        code = None
        print("bench: pass timed out after {:.0f}s".format(timeout), file=sys.stderr)
        os.killpg(process.pid, signal.SIGTERM)
    finally:
        _reap_group(process, before)
    if code != 0:
        return None
    with open(spec["out"]) as handle:
        return json.load(handle)


def build_store(spec: dict, plan: dict) -> None:
    """Pre-populate ``scale_scan``'s artifact store (untimed, in-process).

    One run per y column builds and saves that column's shape index, so
    the pass children map it from disk instead of building it.
    """
    from repro import ShapeSearch

    from bench.workloads import X, Z

    shape = plan["ops"][0]["query"]
    with ShapeSearch.from_csv(spec["csv"], index=True, store=spec["store"]) as session:
        for y in sorted({op["y"] for op in plan["ops"]}):
            session.prepare(shape, z=Z, x=X, y=y).run(k=10)


def prepare_inputs(workload: str, seed: int, scale: str, work: str) -> Tuple[dict, dict]:
    """Generate one workload's inputs; returns ``(spec, plan)``."""
    from bench import gen

    spec = gen.generate(workload, seed, scale, work)
    with open(spec["ops"]) as handle:
        plan = json.load(handle)
    if workload == "scale_scan":
        spec["store"] = os.path.join(work, "store")
        build_store(spec, plan)
    return spec, plan


# ---------------------------------------------------------------------------
# End-to-end run
# ---------------------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default definition)."""
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def summarize(plan: dict, passes: List[Optional[dict]], problems: List[str]) -> dict:
    """Best-of-pass latencies and the five metrics of one workload."""
    from bench.workloads import client_slices, flat_ops

    count = len(flat_ops(plan))
    done = [p for p in passes if p is not None]
    attempted = count * len(passes)
    failed = count * (len(passes) - len(done)) + sum(
        latency is None for p in done for latency in p["latencies_ns"]
    )
    # Every time of a pass is scaled to reference speed by that pass's
    # own yardstick reading (bench/calibrate.py) before passes are compared.
    best = []
    for position in range(count):
        samples = [p["latencies_ns"][position] * p["host_speed"]["fastest"] for p in done
                   if p["latencies_ns"][position] is not None]
        best.append(min(samples) / 1e6 if samples else None)
    answered = [latency for latency in best if latency is not None]
    metrics = {}
    if answered:
        # A closed loop completes its ops in the sum of their latencies;
        # concurrent clients finish when the slowest of them does.
        busiest = max(
            sum(latency or 0.0 for latency in best[start:stop])
            for start, stop in client_slices(plan)
        )
        metrics = {
            "setup_s": statistics.median(
                p["setup_ns"] * p["host_speed"]["mean"] for p in done) / 1e9,
            "ops_per_s": len(answered) / (busiest / 1e3),
            "p50_ms": percentile(answered, 50),
            "p90_ms": percentile(answered, 90),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in done),
        }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed + len(problems),
        "ops": count,
        "passes": len(done),
        "host_speed": statistics.median(p["host_speed"]["mean"] for p in done) if done else 0.0,
    }


def run_end_to_end(names: List[str], seed: int, scale: str, seconds: float) -> dict:
    """All timed passes (round-robin), then the oracle check per workload."""
    from bench import oracle

    outcomes: Dict[str, dict] = {}
    passes = {name: pass_count(name, scale, seconds) for name in names}
    with workdir() as work:
        inputs = {name: prepare_inputs(name, seed, scale, work) for name in names}
        results: Dict[str, list] = {name: [] for name in names}
        deadline = time.monotonic() + RUN_BUDGET_S * len(names)
        for turn in range(max(passes.values())):
            for name in names:
                if turn >= passes[name]:
                    continue
                spec = dict(inputs[name][0], mode="timed")
                left = deadline - time.monotonic()
                outcome = run_child(spec, work, min(PASS_TIMEOUT_S, left)) if left > 1 else None
                results[name].append(outcome)
                if outcome is not None:
                    print("bench: {} pass set-up {:.2f}s timed {:.2f}s host speed {:.2f}".format(
                        name, outcome["setup_ns"] / 1e9, outcome["wall_ns"] / 1e9,
                        outcome["host_speed"]["mean"],
                    ), file=sys.stderr)
        for name in names:
            spec, plan = inputs[name]
            done = [p for p in results[name] if p is not None]
            correct, checked, problems = (False, 0, ["no pass finished"])
            if done:
                correct, checked, problems = oracle.check(spec, plan, done)
            outcome = summarize(plan, results[name], problems)
            outcome.update(correct=correct and bool(outcome["metrics"]),
                           checked=checked, problems=problems)
            outcomes[name] = outcome
    return outcomes


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def run_traced(names: List[str], seed: int, scale: str, trace_out: Optional[str],
               crf: bool) -> dict:
    outcomes: Dict[str, dict] = {}
    with workdir() as work:
        for name in names:
            spec, _plan = prepare_inputs(name, seed, scale, work)
            spans = trace_out or str(WORK / "trace-{}-{}.jsonl".format(name, seed))
            if trace_out and len(names) > 1:
                spans = "{}.{}".format(trace_out, name)
            spec = dict(spec, mode="trace", spans=spans, crf=crf)
            outcome = run_child(spec, work, timeout=RUN_BUDGET_S + (120 if crf else 0))
            if outcome is None:
                outcome = {"metrics": {}, "attempted": 1, "failed": 1,
                           "correct": False, "problems": ["traced pass died"]}
            outcome["spans"] = spans
            outcomes[name] = outcome
    return outcomes


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def report(outcomes: Dict[str, dict], units: Dict[str, str], single: bool) -> dict:
    """Print the human table; return the driver's JSON object."""
    metrics = {}
    for name, outcome in outcomes.items():
        print("== {} ==".format(name))
        for metric, unit in units.items():
            if metric not in outcome["metrics"]:
                continue
            value = outcome["metrics"][metric]
            print("{:<40s} {:>14.6g} {}".format(metric, value, unit))
            key = metric if single else "{}.{}".format(name, metric)
            metrics[key] = {"value": value, "unit": unit}
        print("attempted {} failed {} oracle-checked {} correct {}".format(
            outcome["attempted"], outcome["failed"], outcome.get("checked", 0),
            outcome["correct"],
        ))
        if "ops" in outcome:
            print("samples: {} ops x {} passes (latency = best of pass); times are at "
                  "reference speed, the host ran at {:.2f} of it".format(
                      outcome["ops"], outcome["passes"], outcome["host_speed"]))
        if outcome.get("spans"):
            print("spans: {} (Score ran as {})".format(
                outcome["spans"], ", ".join(outcome.get("score_classes", [])) or "?"))
        for problem in outcome.get("problems", [])[:10]:
            print("PROBLEM: {}".format(problem))
    return {
        "correct": all(outcome["correct"] for outcome in outcomes.values()),
        "attempted": max(1, sum(outcome["attempted"] for outcome in outcomes.values())),
        "failed": sum(outcome["failed"] for outcome in outcomes.values()),
        "metrics": metrics,
    }


def pass_count(workload: str, scale: str, seconds: float) -> int:
    """Passes of one workload: one at smoke scale, else what ``--seconds`` buys."""
    return 1 if scale == "smoke" else max(1, int(seconds // PASS_SECONDS[workload]))


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    from bench.gen import WORKLOADS

    parser = argparse.ArgumentParser(prog="bench.run", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four, passes round-robin)")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed budget per workload, spent in whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced per-layer run instead of the timed one")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny tables, 10 ops, one pass")
    parser.add_argument("--trace-out", help="where the traced run writes its spans")
    parser.add_argument("--crf", action="store_true",
                        help="traced run only: also measure the CRF tagger (~1 min)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("bench: no program to measure under {}".format(SRC), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bench.gen import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    started = time.perf_counter()
    if args.trace:
        from bench.layers import CRF_UNITS, UNITS

        outcomes = run_traced(names, args.seed, args.scale, args.trace_out, args.crf)
        units = dict(UNITS, **CRF_UNITS)
    else:
        outcomes = run_end_to_end(names, args.seed, args.scale, args.seconds)
        units = {name: unit for name, (unit, _better) in END_TO_END.items()}
    summary = report(outcomes, units, single=args.workload is not None)
    print("bench: seed {} scale {} took {:.1f}s".format(
        args.seed, args.scale, time.perf_counter() - started), file=sys.stderr)
    if not summary["metrics"]:
        return 1
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
