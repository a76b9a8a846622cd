"""One pass, one fresh process: ``python -m bench.child <spec.json>``.

A timed pass is cold set-up (clocked from the first line of this file,
before numpy or ``repro`` are imported) → the workload's timed ops, with
the host-speed yardstick (``bench.calibrate``) timed right before and
right after them → ``VmHWM`` → exit.  Nothing survives into the next
pass, so every pass does identical work and an op's best-of-pass latency
means something.  A traced pass (``mode: "trace"``) hands over to
``bench.layers``.
"""

from __future__ import annotations

import time

STARTED_NS = time.perf_counter_ns()

import json  # noqa: E402  (the clock read above must come first)
import os  # noqa: E402
import sys  # noqa: E402


def timed_pass(spec: dict) -> dict:
    # Importing the workloads imports repro: deliberately part of set-up.
    from bench import calibrate, workloads

    with open(spec["ops"]) as handle:
        plan = json.load(handle)
    workload = workloads.WORKLOADS[spec["workload"]](spec, plan)
    try:
        workload.setup()
        setup_ns = time.perf_counter_ns() - STARTED_NS
        yardstick = calibrate.sample()
        latencies, results, wall_ns = workload.timed()
        yardstick += calibrate.sample()
        return {
            "host_speed": calibrate.host_speed(yardstick),
            "setup_ns": setup_ns,
            "wall_ns": wall_ns,
            "latencies_ns": latencies,
            "results": results,
            "peak_rss_mb": workload.peak_rss_mb(),
            "extras": workload.extras(),
        }
    finally:
        workload.close()


def main(argv: list) -> int:
    with open(argv[1]) as handle:
        spec = json.load(handle)
    # One CPU for the pass and everything it starts (server process, pool
    # workers): on a shared 2-vCPU host the second vCPU comes and goes, and
    # cross-vCPU wake-ups with it; confined runs spread half as much.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if spec["mode"] == "trace":
        from bench import layers

        outcome = layers.traced_pass(spec, STARTED_NS, time.perf_counter_ns())
    else:
        outcome = timed_pass(spec)
    from repro.serving.protocol import json_dumps  # numpy-safe, canonical

    with open(spec["out"], "wb") as handle:
        handle.write(json_dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
