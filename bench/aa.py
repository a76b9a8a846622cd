"""A/A check: ``python -m bench.aa --sets 2 --runs 5 > bench/AA_REPORT.md``.

Runs the whole benchmark ``sets x runs`` times on the *same* code, the
sets interleaved (A1 B1 A2 B2 ...) and every run on another seed, and
prints per workload x metric both set medians, how much worse the later
median is, the bound from BENCHMARK.json, the run-to-run spread (the
distance between the quartiles as a share of the median) and a verdict.
Exits non-zero when a pair of medians differs by more than its bound.

A pair past *half* its bound is flagged ``WATCH``: lengthen that
workload's pass (bench/gen.py sizes) before touching the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Optional, Tuple

from bench import run
from bench.gen import WORKLOADS


def load_bounds() -> Dict[str, dict]:
    with open(run.ROOT / "BENCHMARK.json") as handle:
        config = json.load(handle)
    return {metric["name"]: metric for metric in config["end_to_end"]}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def spread(values: List[float]) -> float:
    """Interquartile distance over the median (the driver's steadiness test)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def collect(sets: int, runs: int, names: List[str], seed: int, scale: str,
            seconds: float) -> Dict[str, Dict[str, List[List[float]]]]:
    """``values[workload][metric][set]`` = that set's per-run values."""
    values = {name: {metric: [[] for _ in range(sets)] for metric in run.END_TO_END}
              for name in names}
    for index in range(runs):
        for number in range(sets):
            run_seed = seed + number * runs + index
            outcomes = run.run_end_to_end(names, run_seed, scale, seconds)
            for name, outcome in outcomes.items():
                if not outcome["correct"] or outcome["failed"]:
                    raise SystemExit("seed {}: {} failed: {}".format(
                        run_seed, name, outcome["problems"][:3]))
                for metric, value in outcome["metrics"].items():
                    values[name][metric][number].append(value)
            print("aa: run {}/{} of set {} done (seed {})".format(
                index + 1, runs, number + 1, run_seed), file=sys.stderr)
    return values


def render(values, bounds: Dict[str, dict], sets: int, runs: int) -> Tuple[List[str], int]:
    lines = [
        "# A/A report",
        "",
        "{} interleaved sets x {} runs of the same code, every run on its own "
        "seed; `worse by` compares the last set's median with the first's, "
        "`spread` is (Q3 - Q1) / median over all runs.".format(sets, runs),
        "",
        "| workload | metric | " + " | ".join(
            "set {} median".format(n + 1) for n in range(sets)
        ) + " | worse by | bound | spread | verdict |",
        "|---|---|" + "---:|" * sets + "---:|---:|---:|---|",
    ]
    violations = 0
    for name, metrics in values.items():
        for metric, per_set in metrics.items():
            bound = bounds[metric]["bound"]
            medians = [statistics.median(column) for column in per_set]
            worse = worse_by(medians[0], medians[-1], bounds[metric]["better"])
            verdict = "ok"
            if worse > bound:
                verdict = "VIOLATION"
                violations += 1
            elif worse > bound / 2:
                verdict = "WATCH"
            lines.append("| {} | {} | {} | {:+.1%} | {:.0%} | {:.1%} | {} |".format(
                name, metric, " | ".join("{:.4g}".format(m) for m in medians),
                worse, bound, spread([v for column in per_set for v in column]), verdict,
            ))
    lines += ["", "Violations: {}".format(violations), ""]
    return lines, violations


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.aa", description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    values = collect(args.sets, args.runs, args.workload or list(WORKLOADS),
                     args.seed, args.scale, args.seconds)
    lines, violations = render(values, load_bounds(), args.sets, args.runs)
    print("\n".join(lines))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
