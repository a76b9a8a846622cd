# Fixture: per-candidate results built inside the Score funnel.  Parsed, never run.
import heapq

from somewhere import ChainSolution, QueryResult, _finalize, plan_layout  # noqa — fixtures are never imported


def solve_query_batched(trendlines, query, batch_solver):  # REP034: a result object per candidate
    best = [None] * len(trendlines)
    for index, chain in enumerate(query.chains):
        placements = [plan_layout(t, chain, 0, t.n_bins) for t in trendlines]
        for c, trendline in enumerate(trendlines):
            solution = _finalize(trendline, chain, placements[c], {}, True)
            if best[c] is None or solution.score > best[c].score:
                best[c] = QueryResult(solution.score, index, solution)
    return best


def score_shard(trendlines, query, k, solve_block):  # REP034: wraps every candidate before ranking
    heap = []
    scores = solve_block(trendlines, query)
    for position, score in enumerate(scores):
        item = (score, -position, QueryResult(score, 0, ChainSolution(score)))
        heapq.heappush(heap, item)
    return heapq.nlargest(k, heap)
