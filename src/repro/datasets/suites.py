"""Synthetic stand-ins for the five evaluation datasets (paper Table 11).

The paper evaluates on Weather, Worms, 50 Words, Haptics (UCI) and a
Zillow Real-Estate table.  Those files are not redistributable and are
unavailable offline, so each suite here reproduces the *workload
characteristics* that drive the performance experiments — the number of
visualizations, their lengths, multi-y-per-x aggregation for Real
Estate — with a deterministic mix of shape families (README "Layout":
``datasets/`` holds synthetic stand-ins for the evaluation suites).

Alongside the data, this module records the exact fuzzy and non-fuzzy
queries of Table 11 in the regex dialect (non-fuzzy x ranges are scaled
into each suite's x domain where the paper's printed ranges exceed it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data.table import Table
from repro.datasets.synthetic import mixed_collection
from repro.engine.trendline import Trendline, build_trendline
from repro.errors import DataError


@dataclass(frozen=True)
class SuiteSpec:
    """Cardinality and query set of one Table 11 dataset."""

    name: str
    visualizations: int
    length: int
    fuzzy_queries: Tuple[str, ...]
    non_fuzzy_query: str
    #: Real Estate has several y rows per (z, x) and needs aggregation.
    y_per_x: int = 1
    seed: int = 7


SUITES: Dict[str, SuiteSpec] = {
    "weather": SuiteSpec(
        name="weather",
        visualizations=144,
        length=366,
        fuzzy_queries=(
            "[p=45][p=down][p=up][p=down]",
            "([p=up]|[p=down])[p=flat][p=up][p=down]",
            "[p=flat][p=up][p=down][p=flat]",
        ),
        non_fuzzy_query=(
            "[p=down,x.s=0,x.e=91][p=up,x.s=91,x.e=274][p=down,x.s=274,x.e=365]"
        ),
        seed=11,
    ),
    "worms": SuiteSpec(
        name="worms",
        visualizations=258,
        length=900,
        fuzzy_queries=(
            "[p=down]([p=45]|[p=-20])[p=flat]",
            "[p=down][p=45][p=down]",
            "[p=up][p=down][p=up]",
        ),
        non_fuzzy_query="[p=down,x.s=50,x.e=100]",
        seed=13,
    ),
    "50words": SuiteSpec(
        name="50words",
        visualizations=905,
        length=270,
        fuzzy_queries=(
            "[p=down]([p=up]|[p=flat][p=down])",
            "[p=flat][p=up][p=down][p=flat]",
            "([p=up]|[p=down])([p=up]|[p=down])[p=flat]",
        ),
        # The paper prints x ranges beyond the 270-point domain; scaled in.
        non_fuzzy_query="[p=down,x.s=50,x.e=100][p=up,x.s=200,x.e=250]",
        seed=17,
    ),
    "realestate": SuiteSpec(
        name="realestate",
        visualizations=1777,
        length=138,
        fuzzy_queries=(
            "[p=flat][p=down][p=up][p=flat]",
            "[p=up][p=down][p=up][p=flat]",
            "[p=up][p=flat](([p=45][p=60])|([p=up][p=down]))",
        ),
        non_fuzzy_query=(
            "[p=down,x.s=1,x.e=20][p=up,x.s=20,x.e=60][p=down,x.s=60,x.e=137]"
        ),
        y_per_x=3,
        seed=19,
    ),
    "haptics": SuiteSpec(
        name="haptics",
        visualizations=463,
        length=1092,
        fuzzy_queries=(
            "[p=up][p=down][p=flat][p=up]",
            "[p=down][p=up][p=down][p=flat]",
        ),
        non_fuzzy_query="[p=up,x.s=60,x.e=80]",
        seed=23,
    ),
}


def suite_spec(name: str) -> SuiteSpec:
    """Look up a suite by name."""
    try:
        return SUITES[name]
    except KeyError:
        raise DataError(
            "unknown suite {!r}; available: {}".format(name, sorted(SUITES))
        ) from None


def suite_trendlines(
    name: str,
    max_visualizations: Optional[int] = None,
    max_length: Optional[int] = None,
) -> List[Trendline]:
    """The suite as ready-to-score trendlines (what the benchmarks use).

    ``max_visualizations``/``max_length`` allow scaled-down runs on
    modest hardware (set by the ``REPRO_BENCH_SCALE`` knob in the
    benchmark harness); defaults reproduce the full Table 11 sizes.
    """
    spec = suite_spec(name)
    count = spec.visualizations if max_visualizations is None else min(
        spec.visualizations, max_visualizations
    )
    length = spec.length if max_length is None else min(spec.length, max_length)
    collection = mixed_collection(count, length, seed=spec.seed)
    x = np.arange(length, dtype=float)
    return [build_trendline(key, x, series) for key, series in collection]


def suite_table(
    name: str,
    max_visualizations: Optional[int] = None,
    max_length: Optional[int] = None,
) -> Table:
    """The suite as a relational table (z, x, y) for the full pipeline.

    For Real Estate, each (z, x) pair carries ``y_per_x`` noisy readings,
    exercising EXTRACT's aggregation path.
    """
    spec = suite_spec(name)
    count = spec.visualizations if max_visualizations is None else min(
        spec.visualizations, max_visualizations
    )
    length = spec.length if max_length is None else min(spec.length, max_length)
    collection = mixed_collection(count, length, seed=spec.seed)
    rng = np.random.default_rng(spec.seed + 1)

    zs: List[str] = []
    xs: List[float] = []
    ys: List[float] = []
    for key, series in collection:
        for position, value in enumerate(series):
            for _ in range(spec.y_per_x):
                zs.append(key)
                xs.append(float(position))
                jitter = rng.normal(0, 0.05) if spec.y_per_x > 1 else 0.0
                ys.append(float(value) + jitter)
    return Table.from_arrays(
        z=np.array(zs, dtype=object), x=np.array(xs), y=np.array(ys)
    )
