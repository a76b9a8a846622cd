"""Seeded input generator: one CSV table and one op list per workload.

Everything a workload runs on is made here from ``--seed`` with numpy
alone — the benchmarked program (``repro``) is never imported, so a
later clean-up of ``src/`` (``repro.datasets`` included) cannot change
the load.  The same ``(workload, seed, scale)`` always produces
byte-identical files (``bench/test_smoke.py`` pins the sha256).

The seed moves the *data*, the op *order* and the free parameter
*values* (which region a filter names, which groups an append touches).
It never moves the *mix*: how many ops of each cost class a workload
runs is fixed by the schedules below, so two seeds measure the same
amount of work and their medians are comparable.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Tuple

import numpy as np

WORKLOADS = ("adhoc_scan", "served_dashboard", "scale_scan", "tail_append")

#: Table columns, in CSV order.
COLUMNS = ("z", "x", "y1", "y2", "y3", "region")
Y_COLUMNS = ("y1", "y2", "y3")
REGIONS = 6
KS = (5, 10, 20)

#: (groups, points per group) per workload and scale.  ``full`` is tuned
#: so one timed pass lasts ~2.5 s on the 2-vCPU sizing box (~6 s for
#: ``scale_scan``, whose ops cost ~45 ms of pool round trips whatever the
#: table size, and which needs >= 256 groups for the bound pass to be
#: dispatched to the workers at all): the driver's cap leaves ~37 s per
#: run for three such passes plus their cold set-ups, with room for the
#: host's slow phases.  ``smoke`` only proves the plumbing.
SIZES = {
    "full": {
        "adhoc_scan": (96, 128),
        "served_dashboard": (160, 64),
        "scale_scan": (272, 64),
        "tail_append": (120, 100),
    },
    "smoke": {
        "adhoc_scan": (24, 40),
        "served_dashboard": (24, 40),
        "scale_scan": (40, 40),
        "tail_append": (24, 40),
    },
}

#: Ops per timed pass (per client for served_dashboard: 72 hits + 18 of
#: the 36 miss keys; scale_scan's 108 is its whole shape x y x k product).
OPS = {
    "full": {"adhoc_scan": 100, "served_dashboard": 90, "scale_scan": 108,
             "tail_append": 100},
    "smoke": dict.fromkeys(WORKLOADS, 10),
}

#: Twelve regex-dialect shapes every index can bound (fully fuzzy,
#: directional).  The three ``flat``-in-the-middle shapes prune badly on
#: purpose (almost any series has a flat-ish stretch somewhere): they are
#: a quarter of the indexed ops, so p90 falls in the middle of that mode.
INDEXED_SHAPES = (
    "[p=up][p=down]",
    "[p=down][p=up]",
    "[p=up][p=down][p=up]",
    "[p=down][p=up][p=down]",
    "[p=up][p=flat][p=down]",
    "[p=down][p=flat][p=up]",
    "[p=flat][p=up]",
    "[p=up][p=flat][p=up]",
    "[p=up][p=down][p=up][p=down]",
    "[p=down][p=up][p=down][p=up]",
    "[p=up,m=>>][p=down]",
    "[p=down][p=up][p=down][p=up][p=down]",
)

#: Natural-language sentences the rule tagger resolves (2-4 segments).
NL_SENTENCES = (
    "rising then falling",
    "increasing then flat then decreasing",
    "falling then rising then falling again",
    "stable at first then rising",
    "rising, then going down, and then rising again",
    "a peak followed by a valley",
)


def adhoc_queries(length: int) -> list:
    """The 20 ad-hoc queries: 12 regex and 6 NL strings, 2 sketch dicts."""
    pin_lo, pin_hi = int(length * 0.15), int(length * 0.55)
    regex = list(INDEXED_SHAPES[:10]) + [
        "[p=up,x.s={},x.e={}][p=down]".format(pin_lo, pin_hi),
        "[p=up,m={2,}]",
    ]
    queries = regex + list(NL_SENTENCES)
    last = float(length - 1)
    blurry = [[0.0, 0.0], [last * 0.3, 8.0], [last * 0.6, 2.0], [last, 9.0]]
    precise = [[0.0, 1.0], [last * 0.25, -1.0], [last * 0.5, 0.5],
               [last * 0.75, -0.5], [last, 1.5]]
    queries.append({"mode": "blurry", "points": blurry})
    queries.append({"mode": "precise", "points": precise})
    return queries


# ---------------------------------------------------------------------------
# Data: trend / seasonal / walk / noise mixtures
# ---------------------------------------------------------------------------

#: Piecewise-linear trend archetypes as slope signs per piece; groups
#: cycle through them so every seed holds the same blend of shapes.
_ARCHETYPES = (
    (1,), (-1,), (0,), (1, -1), (-1, 1), (1, 0), (0, 1), (1, 0, -1),
    (-1, 0, 1), (1, -1, 1), (-1, 1, -1), (1, -1, 1, -1), (-1, 1, -1, 1),
)


def group_name(g: int) -> str:
    return "s{:04d}".format(g)


def region_name(r: int) -> str:
    return "r{}".format(r)


def _series(rng: np.random.Generator, archetype: Tuple[int, ...], length: int) -> np.ndarray:
    """One series: piecewise trend + seasonal + random walk + noise."""
    pieces = len(archetype)
    cuts = np.sort(rng.uniform(0.15, 0.85, size=pieces - 1)) if pieces > 1 else []
    edges = [0] + [int(c * length) for c in cuts] + [length]
    slopes = np.zeros(length)
    for sign, lo, hi in zip(archetype, edges[:-1], edges[1:]):
        slopes[lo:hi] = sign * rng.uniform(0.6, 1.4) + rng.normal(0.0, 0.04)
    trend = np.cumsum(slopes) * (40.0 / length)
    x = np.arange(length)
    seasonal = rng.uniform(0.3, 1.2) * np.sin(
        2.0 * np.pi * x / rng.uniform(length / 6.0, length / 2.0)
        + rng.uniform(0.0, 2.0 * np.pi)
    )
    walk = np.cumsum(rng.normal(0.0, 0.25, size=length))
    noise = rng.normal(0.0, 0.35, size=length)
    return rng.uniform(50.0, 150.0) + trend + seasonal + walk + noise


def make_columns(rng: np.random.Generator, groups: int, length: int) -> Dict[str, list]:
    """The table as plain column lists (group-major row order)."""
    order = rng.permutation(groups)
    regions = [region_name(int(order[g]) % REGIONS) for g in range(groups)]
    columns: Dict[str, list] = {name: [] for name in COLUMNS}
    xs = [float(i) for i in range(length)]
    for g in range(groups):
        columns["z"].extend([group_name(g)] * length)
        columns["x"].extend(xs)
        columns["region"].extend([regions[g]] * length)
        for shift, name in enumerate(Y_COLUMNS):
            archetype = _ARCHETYPES[(int(order[g]) + 5 * shift) % len(_ARCHETYPES)]
            columns[name].extend(_series(rng, archetype, length).tolist())
    return columns


def write_csv(path: str, columns: Dict[str, list]) -> None:
    """Write the table; floats as ``repr`` so every bit round-trips."""
    rows = zip(*(columns[name] for name in COLUMNS))
    with open(path, "w", newline="\n") as handle:
        handle.write(",".join(COLUMNS) + "\n")
        handle.writelines(
            "{},{!r},{!r},{!r},{!r},{}\n".format(*row) for row in rows
        )


# ---------------------------------------------------------------------------
# Op lists
# ---------------------------------------------------------------------------


def _adhoc_ops(rng, regions: List[str], length: int, count: int) -> dict:
    """80 % region-filtered (a sixth of the groups), 20 % whole-table.

    Every query runs once per turn; in turn ``t`` the queries whose
    position is ``t`` mod 5 run unfiltered (or x-range filtered), so
    each of the 20 queries contributes four cheap ops and one wide op.
    """
    queries = adhoc_queries(length)
    wide = [[], ["x >= {}".format(int(length * 0.2))], ["x < {}".format(int(length * 0.8))]]
    ops = []
    for index in range(count):
        slot, turn = index % len(queries), index // len(queries)
        query = queries[slot]
        if slot % 5 == turn % 5:
            filters = wide[(slot + turn) % len(wide)]
        else:
            filters = ["region == " + region_name(int(rng.integers(REGIONS)))]
        ops.append({
            "query": query,
            "y": Y_COLUMNS[(index + turn) % len(Y_COLUMNS)],
            "filters": filters,
            "bin_width": 2.0 if (index + turn) % 2 else None,
            "k": KS[(index // 3 + turn) % len(KS)],
        })
    return {"ops": [ops[i] for i in rng.permutation(count)]}


def _dashboard_ops(rng, regions: List[str], length: int, count: int) -> dict:
    """Two clients, each 80 % Zipf draws over 24 hot keys, 20 % misses.

    Keys are ``(shape, y, k)``.  Hot: every shape at k = 10 on two of the
    y columns (the seed picks which two).  Misses: every shape on the
    third column at every k — 36 keys dealt alternately to the clients,
    so each client's misses hold the same shape and k mix on every seed,
    and no key repeats, hence none is cached in this pass.
    """
    ys = [Y_COLUMNS[i] for i in rng.permutation(len(Y_COLUMNS))]
    hot = [{"query": shape, "y": y, "k": 10} for shape in INDEXED_SHAPES for y in ys[:2]]
    cold = [{"query": shape, "y": ys[2], "k": k} for shape in INDEXED_SHAPES for k in KS]
    weights = 1.0 / np.arange(1, len(hot) + 1)
    weights /= weights.sum()
    clients = {}
    for c, name in enumerate(("http", "ws")):
        misses = cold[c::2][: count // 5]
        slots = set(rng.choice(count, size=len(misses), replace=False).tolist())
        draws = rng.choice(len(hot), size=count, p=weights)
        ops = []
        for index in range(count):
            if index in slots:
                ops.append(dict(misses.pop(), hot=False))
            else:
                ops.append(dict(hot[int(draws[index])], hot=True))
        clients[name] = ops
    return {"hot": hot, "clients": clients}


def _scale_ops(rng, regions: List[str], length: int, count: int) -> dict:
    """The shape x y x k cross product (thinned for smoke), in seeded order."""
    combos = [{"query": shape, "y": y, "k": k}
              for shape in INDEXED_SHAPES for y in Y_COLUMNS for k in KS]
    combos = combos[:: len(combos) // count][:count]
    return {"ops": [combos[i] for i in rng.permutation(len(combos))]}


def _tail_ops(rng, regions: List[str], length: int, count: int) -> dict:
    """Four appends (16 rows over 4 groups) then one cold read, repeated."""
    groups = len(regions)
    next_x = [length] * groups
    level = rng.uniform(50.0, 150.0, size=(groups, len(Y_COLUMNS)))
    ops = []
    reads = 0
    for index in range(count):
        if index % 5 == 4:
            shape = INDEXED_SHAPES[(reads + 1) % len(INDEXED_SHAPES)]
            ops.append({"type": "read", "query": shape,
                        "y": Y_COLUMNS[reads % len(Y_COLUMNS)], "k": 10})
            reads += 1
            continue
        rows = []
        for g in sorted(rng.choice(groups, size=min(4, groups), replace=False).tolist()):
            for _ in range(4):
                level[g] += rng.normal(0.0, 0.6, size=len(Y_COLUMNS))
                rows.append({"z": group_name(g), "x": float(next_x[g]),
                             "region": regions[g],
                             **dict(zip(Y_COLUMNS, level[g].tolist()))})
                next_x[g] += 1
        ops.append({"type": "append", "rows": rows})
    return {"tail": {"query": INDEXED_SHAPES[0], "y": "y1", "k": 10}, "ops": ops}


_OP_MAKERS = {
    "adhoc_scan": _adhoc_ops,
    "served_dashboard": _dashboard_ops,
    "scale_scan": _scale_ops,
    "tail_append": _tail_ops,
}


def generate(workload: str, seed: int, scale: str, outdir: str) -> dict:
    """Write ``<workload>.csv`` + ``<workload>.ops.json``; return their spec.

    The returned dict (paths, sizes, sha256 of both files) is what a
    pass child is handed — it never sees the seed.
    """
    if workload not in WORKLOADS:
        raise ValueError("unknown workload {!r}".format(workload))
    groups, length = SIZES[scale][workload]
    rng = np.random.default_rng(
        np.random.SeedSequence([int(seed), WORKLOADS.index(workload)])
    )
    columns = make_columns(rng, groups, length)
    plan = _OP_MAKERS[workload](
        rng, columns["region"][::length], length, OPS[scale][workload]
    )
    plan.update(workload=workload, scale=scale, groups=groups, length=length)
    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, workload + ".csv")
    ops_path = os.path.join(outdir, workload + ".ops.json")
    write_csv(csv_path, columns)
    with open(ops_path, "w") as handle:
        json.dump(plan, handle, sort_keys=True, separators=(",", ":"))
    return {
        "workload": workload,
        "scale": scale,
        "csv": csv_path,
        "ops": ops_path,
        "csv_sha256": _sha256(csv_path),
        "ops_sha256": _sha256(ops_path),
    }


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:  # a few MB at most
        return hashlib.sha256(handle.read()).hexdigest()
