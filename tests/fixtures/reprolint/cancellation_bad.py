# Fixture: violates every REP03x cancellation-seam rule.  Parsed, never run.
from concurrent.futures import ThreadPoolExecutor

from somewhere import build_trendline, score_shard, solve_one  # noqa — fixtures are never imported


class BrokenScore:
    """A Score operator whose shard loop is invisible to cancel."""

    def run(self, ctx, shards):  # REP031: no dispatch_*, no control
        results = []
        for shard in shards:
            results.append(score_shard(shard))
        return results


def dispatch_rows(pool, tasks):  # REP032: bypasses the _run_tasks funnel
    executor = ThreadPoolExecutor(max_workers=2)  # REP033: raw pool
    return [executor.submit(task) for task in tasks]


def score_block(trendlines, query):  # REP034: one kernel launch per candidate
    results = []
    for trendline in trendlines:
        results.append(solve_one(trendline, query, "segment-tree"))
    return results + [solve_one(t, query, "segment-tree") for t in trendlines]


def generate(table, params):  # REP035: one GROUP chain per group
    trendlines = []
    for key, rows in table.group_by(params.z):
        trendlines.append(build_trendline(key, table.column("x")[rows], table.column("y")[rows]))
    return trendlines


def count_groups(table, params):  # REP035: per-row walk over a column
    return len({value for value in table.column(params.z).tolist()})


def affected_keys(table, params, start):  # REP035: the same, through a local
    values = table.column(params.z)[start:]
    seen = []
    for index, value in enumerate(values.tolist()):
        if value not in seen:
            seen.append((index, value))
    return seen
