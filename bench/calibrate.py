"""Host-speed calibration: a fixed piece of work, timed beside every pass.

The VM this benchmark was sized on (2 shared vCPUs) runs *everything* —
``import repro``, the DP, the socket round trips — up to 80 % slower for
minutes at a time, with no steal time reported in ``/proc/stat``, and
stutters for milliseconds on top of that.  The slow phases outlast a
whole run, so repeating inside a run cannot remove them: ten identical
runs spread 25-30 % (quartile distance over median) on raw wall-clock,
more than any bound this benchmark may set.  They slow a fixed loop of
the same diet by the same factor, though.

So every pass times :func:`spin` 15 times right before and 15 times
right after its timed phase, and the harness scales that pass's times to
*reference speed* — the speed at which the yardstick reads the two
constants below, i.e. this box in a fast phase.  The yardstick goes
through the same estimator as what it scales:

* op latencies are best-of-pass minima, free of stutter, so they are
  scaled by the **fastest** yardstick sample of their pass;
* set-up happens once per pass and contains the stutter, so it is scaled
  by the **mean** sample.

Measured over twelve ``adhoc_scan`` runs on twelve seeds in a restless
hour, that brought the spread of p50 from 26 % to 8 % and of set-up from
27 % to 4 %; over ten confined ``served_dashboard`` runs, p50 from 29 %
to 5 %.  In a calm hour it changes little.

``spin`` uses numpy and the standard library only, never ``repro``: a
change to the program cannot move the yardstick.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Dict, List

import numpy as np

#: The fastest and the mean ``spin()`` of a pass on the sizing box in a
#: fast phase: what "reference speed" means.
REFERENCE_FASTEST_NS = 7_000_000
REFERENCE_MEAN_NS = 7_600_000

#: Samples per calibration point (one before, one after the timed phase).
SAMPLES = 15


def spin() -> float:
    """Small-array numpy, Python bytecode and JSON — the program's diet."""
    values = np.linspace(-2.0, 2.0, 192)
    total = 0.0
    for i in range(800):
        window = values[i % 64: i % 64 + 128]
        total += float(np.dot(window, window)) + float(np.cumsum(window)[-1])
        total += float(np.arctan(window).max())
    counts = {}
    for i in range(20000):
        key = i & 1023
        counts[key] = counts.get(key, 0) + i
    for _ in range(4):
        total += len(json.loads(json.dumps(list(counts.values()))))
    return total


def sample(count: int = SAMPLES) -> List[int]:
    """``count`` timings of :func:`spin`, in ns."""
    timings = []
    for _ in range(count):
        started = time.perf_counter_ns()
        spin()
        timings.append(time.perf_counter_ns() - started)
    return timings


def host_speed(timings: List[int]) -> Dict[str, float]:
    """1.0 at reference speed, below 1.0 when the host is slow."""
    return {
        "fastest": REFERENCE_FASTEST_NS / min(timings),
        "mean": REFERENCE_MEAN_NS / statistics.fmean(timings),
    }
