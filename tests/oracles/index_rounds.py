"""Best-first indexed top-k, one candidate at a time: the rounds' reference.

The loop ``BoundFrontier`` + the Score rounds run, written the slow way
— the scalar per-level bound oracle (``index_bounds``) for one
candidate, ``solve_one`` for one candidate, plain Python lists for the
frontier — so the suites can hold the engine to it on every plan: same
candidates solved, each once, same final floor.  Nothing here is fast,
on purpose.

The loop: every candidate starts at the min of its coarse levels' bounds
(all levels but the finest; ``+inf`` with no pyramid or a single level);
round ``r`` draws the ``max(k, 16)`` (then 32, 64, ...) best-bounded
unsolved candidates that still pass ``survives_floor`` — bound desc,
position asc — and solves them; the floor is the k-th best finite score
so far; the first time the floor can prune anything (it exceeds the −1
every bound is clamped at), every unsolved candidate still passing it is
tightened by its finest level, once.  The rounds end when no unsolved
candidate passes the floor.
"""

import math
from typing import Dict, List, Sequence, Tuple

from repro.engine.chains import CompiledQuery
from repro.engine.parallel import solve_one
from repro.engine.shape_index import ShapeIndex, survives_floor
from repro.engine.trendline import Trendline

from tests.oracles.index_bounds import level_bound


def round_sizes(k: int):
    yield max(k, 16)
    size = 32
    while True:
        yield size
        size *= 2


def best_first_topk(
    trendlines: Sequence[Trendline],
    index: ShapeIndex,
    query: CompiledQuery,
    k: int,
    algorithm: str = "segment-tree",
) -> Tuple[List[List[int]], Dict[int, object], List[float], float]:
    """Returns ``(rounds of positions, {position: result}, bounds, floor)``."""
    entries = index.entries
    bounds = []
    for entry in entries:
        coarse = [] if entry is None else entry.levels[1:]
        bounds.append(min([math.inf] + [level_bound(entry, lv, query) for lv in coarse]))
    finest_pending = True
    solved: Dict[int, object] = {}
    rounds: List[List[int]] = []
    floor = -math.inf
    for size in round_sizes(k):
        unsolved = [p for p in range(len(trendlines)) if p not in solved]
        if finest_pending and not survives_floor(-1.0, floor):
            finest_pending = False
            for p in unsolved:
                if entries[p] is not None and survives_floor(bounds[p], floor):
                    fine = level_bound(entries[p], entries[p].levels[0], query)
                    bounds[p] = min(bounds[p], fine)
        alive = [p for p in unsolved if survives_floor(bounds[p], floor)]
        if not alive:
            return rounds, solved, bounds, floor
        block = sorted(sorted(alive, key=lambda p: (-bounds[p], p))[:size])
        rounds.append(block)
        for p in block:
            solved[p] = solve_one(trendlines[p], query, algorithm)
        scores = sorted(
            (r.score for r in solved.values() if math.isfinite(r.score)), reverse=True
        )
        floor = scores[k - 1] if len(scores) >= k else -math.inf
