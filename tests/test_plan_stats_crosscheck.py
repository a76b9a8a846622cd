"""Cross-check: explain_plan names exactly the stages the stats report.

Satellite contract of the API redesign: for every worker count × kernel
combination, the pre-run ``explain_plan`` text, the post-run
``ResultSet.plan`` text, and the post-run ``ExecutionStats`` must tell
one consistent story — the planner's choice is what actually executed.
"""

import re

import numpy as np
import pytest

from repro.data.table import Table
from repro.data.visual_params import VisualParams
from repro.engine.executor import ShapeSearchEngine
from repro.engine.pipeline import generate_trendlines
from repro.parser import parse

PARAMS = VisualParams(z="z", x="x", y="y")
QUERY = parse("[p=up][p=down]")

#: ``Name[mode]`` per EXPLAIN line, e.g. ``("Score", "sequential")``.
_STAGE = re.compile(r"^(?:\s*->\s*)?([\w/]+)\[([^\]]*)\]")


def _table(groups=8, length=25, seed=3):
    rng = np.random.default_rng(seed)
    zs, xs, ys = [], [], []
    for g in range(groups):
        values = rng.normal(0, 1, length).cumsum()
        for i, v in enumerate(values):
            zs.append("g{:02d}".format(g))
            xs.append(float(i))
            ys.append(float(v))
    return Table.from_arrays(
        z=np.array(zs, dtype=object), x=np.array(xs), y=np.array(ys)
    )


def parse_stages(plan_text):
    stages = []
    for line in plan_text.splitlines():
        matched = _STAGE.match(line)
        assert matched, "unparseable EXPLAIN line: {!r}".format(line)
        stages.append((matched.group(1), matched.group(2)))
    return stages


@pytest.mark.parametrize("kernel", ["matrix", "loop"])
@pytest.mark.parametrize("workers", [1, 3])
def test_plan_names_the_stages_stats_report(workers, kernel, shard_floor):
    shard_floor(2)  # eight groups: several shards on the pool
    table = _table()
    with ShapeSearchEngine(workers=workers, kernel=kernel) as engine:
        planned = engine.explain_plan(table, PARAMS, QUERY, k=3)
        results = engine.run(table, PARAMS, QUERY, k=3)
        stats = results.stats

        # The plan that ran is the plan that was promised.
        assert results.plan == planned

        stages = parse_stages(planned)
        names = [name for name, _mode in stages]
        assert names == ["ScanTable", "Extract/Group", "Score", "MergeTopK"]
        modes = dict(stages)

        # Extract/Group[mode] is exactly ExecutionStats.generation.
        assert modes["Extract/Group"] == stats.generation == "parent"
        assert modes["ScanTable"] == "in-process"

        # Score[mode] follows the worker count alone, and agrees with the
        # shard accounting at the MergeTopK rendezvous.
        if workers == 1:
            assert modes["Score"] == "sequential"
            assert stats.shards == 0  # single in-process shard, not counted
        else:
            assert modes["Score"] == "shared-memory"
            assert stats.shards > 1

        # Every candidate is accounted for by the Score stage counters.
        assert stats.scored + stats.eager_discarded == stats.candidates
        assert len(results) == 3


def test_prebuilt_rank_plan_reports_prebuilt_scan():
    table = _table()
    trendlines = generate_trendlines(table, PARAMS)
    with ShapeSearchEngine(workers=2) as engine:
        results = engine.rank(trendlines, QUERY, k=3)
        stats = results.stats
        stages = parse_stages(results.plan)
        assert stages[0] == ("Scan", "prebuilt")
        assert [name for name, _mode in stages] == ["Scan", "Score", "MergeTopK"]
        assert stats.generation == "parent"


@pytest.mark.parametrize("workers", [1, 3])
def test_workers_override_changes_both_plan_and_stats(workers):
    table = _table()
    with ShapeSearchEngine(workers=2) as engine:
        planned = engine.explain_plan(table, PARAMS, QUERY, k=3, workers=workers)
        results = engine.run(table, PARAMS, QUERY, k=3, workers=workers)
        assert results.plan == planned
        assert "workers={}".format(workers) in planned
        if workers == 1:
            assert results.stats.shards == 0
        else:
            assert results.stats.shards >= 1


#: ``IndexPrune[pyramid] k=K source=S rounds=R refined=[n0,n1,...]``.
_INDEX_DETAIL = re.compile(
    r"IndexPrune\[pyramid\] k=(\d+) source=(\w+) rounds=(\d+) refined=\[([\d,]*)\]"
)


@pytest.mark.parametrize("workers", [1, 3])
def test_index_plan_reports_the_rounds_stats_count(workers):
    # 40 smooth 24-bin series (two pyramid levels), a few genuine hits:
    # the plan promises an IndexPrune stage, the run fills in where the
    # index came from, how many rounds Score drew and how many rows each
    # level was evaluated on — and the counters agree with it.
    rng = np.random.default_rng(0)
    zs, xs, ys = [], [], []
    for g in range(40):
        rise = np.concatenate([np.linspace(0, 10, 12), np.linspace(10, 0, 12)])
        values = rise if g % 7 == 0 else np.linspace(10, 0, 24) + rng.normal(0, 0.05, 24)
        zs += ["g{:02d}".format(g)] * 24
        xs += list(range(24))
        ys += values.tolist()
    table = Table.from_arrays(
        z=np.array(zs, dtype=object), x=np.array(xs, dtype=float), y=np.array(ys)
    )
    with ShapeSearchEngine(index=True, workers=workers) as engine:
        planned = engine.explain_plan(table, PARAMS, QUERY, k=3)
        assert "IndexPrune[pyramid] k=3\n" in planned
        results = engine.run(table, PARAMS, QUERY, k=3)
        stats = results.stats
        names = [name for name, _mode in parse_stages(results.plan)]
        assert names == [
            "ScanTable", "Extract/Group", "IndexPrune", "Score", "MergeTopK"
        ]
        k, source, rounds, refined = _INDEX_DETAIL.search(results.plan).groups()
        refined = [int(rows) for rows in refined.split(",")]
        assert int(k) == 3 and source == stats.index_source == "built"
        assert stats.index_candidates == 40
        # The coarse level bounded everyone; the finest only rows that
        # were unsolved and alive when the first floor arrived.
        assert refined[0] == 40 and refined[1] <= 40 - 16
        # Rounds of 16, 32: at most two cover 40 candidates.
        assert 1 <= int(rounds) <= 2
        assert stats.candidates == stats.scored + stats.eager_discarded
        assert stats.index_pruned == stats.index_candidates - stats.candidates > 0
