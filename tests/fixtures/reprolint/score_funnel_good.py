# Fixture: the conforming twin of score_funnel_bad.py.
import heapq

from somewhere import QueryResult, ScoreBlock, _finalize, _finalize_columns  # noqa — never imported


def solve_query_batched(trendlines, query, batch_solver):
    block = ScoreBlock(len(trendlines))
    for index, chain in enumerate(query.chains):
        placements, feasible = batch_solver(trendlines, chain)
        block._offer(index, *_finalize_columns(chain, placements, feasible))  # columns
    return block


def _finalize_each(trendlines, chain, placements, contexts, feasible):
    # The per-candidate remainder lives outside the funnel, by name.
    return [_finalize(*row) for row in zip(trendlines, placements, contexts, feasible)]


def score_shard(trendlines, query, k, solve_many):
    results = solve_many(trendlines, query)
    heap = []
    for row, score in enumerate(results.scores.tolist()):
        heapq.heappush(heap, (score, -row, row))
    return [results[row] for _score, _position, row in heapq.nlargest(k, heap)]


def solve_query(trendline, query, solve_chain):
    best = None
    for index, chain in enumerate(query.chains):  # one candidate: not the funnel
        solution = solve_chain(trendline, chain)
        if best is None or solution.score > best.score:
            best = QueryResult(solution.score, index, solution)
    return best
