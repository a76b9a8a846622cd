# Fixture: the conforming twin of cancellation_bad.py.
from concurrent.futures import ProcessPoolExecutor

from somewhere import _run_tasks, dispatch_score, solve_many, solve_one  # noqa — never imported


class SteadyScore:
    """Routes through the seam: control checkpoint + dispatch helper."""

    def run(self, ctx, shards):
        ctx.control.begin(len(shards))
        return dispatch_score(ctx.pool, shards)


class SequentialishScore:
    """The single-shard path: checkpoints control directly."""

    def run(self, ctx, shards):
        results = []
        for shard in shards:
            ctx.control.raise_if_cancelled()
            results.append(shard.score())
        return results


def dispatch_rows(pool, tasks):
    return _run_tasks(pool, tasks)  # the one funnel


class WorkerPool:
    """The single sanctioned executor construction site."""

    def _ensure(self):
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=2)
        return self._executor


def score_block(trendlines, query):
    return solve_many(trendlines, query, "segment-tree")  # the batched funnel


def score_single(trendline, query):
    return solve_one(trendline, query, "segment-tree")  # one candidate: fine


def generate(table, params):
    return build_collection(table, params)  # the block kernel


def single_series(key, x, y):
    return build_trendline(key, x, y)  # one series: fine


def _encode_values(values, slots):
    return [slots.setdefault(value, len(slots)) for value in values.tolist()]  # the funnel


def count_groups(table, params):
    return len(table.encoding(params.z).keys)


def group_rows(collection):
    return [index for index in collection.groups.tolist()]  # per group, not a column
