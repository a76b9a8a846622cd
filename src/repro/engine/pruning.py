"""Two-stage collective pruning (paper §6.3).

Stage 1 — *identifying lower bounds*: a small sample of candidate
visualizations is scored with the DP algorithm on a uniform subsample of
their points; the k-th best sampled score becomes the initial top-k
floor λ.

Stage 2 — *refining and pruning*: every candidate builds its SegmentTree
bottom-up, but all candidates advance **together**, a few levels per
round.  Between rounds each candidate's upper bound is recomputed from
its current level's node slopes (Table 7 + Property 5.1 composition, see
:mod:`repro.engine.bounds`); candidates whose upper bound falls below λ
are discarded without ever reaching the root.  Candidates that complete
update λ through a top-k heap, tightening the floor for everyone else —
which is why the technique shines on needle-in-a-haystack patterns.

This is the paper's technique in library form, not an engine plan: the
engine's exact pruning is the shape index's bound frontier plus
push-down's eager bound.  The Fig 10 and Fig 13 benchmarks call
:func:`prune_and_rank` directly to measure §6.3; no engine module
imports this one.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.chains import CompiledQuery
from repro.engine.dynamic import ChainSolution, QueryResult, _finalize, solve_query
from repro.engine.segment_tree import IncrementalSegmentTree
from repro.engine.shape_index import survives_floor
from repro.engine.trendline import Trendline, build_trendline
from repro.engine.units import INFEASIBLE, MIN_SEGMENT_BINS, SlopeUnit


@dataclass
class PruningReport:
    """Bookkeeping of what the two stages did (asserted on in benchmarks)."""

    candidates: int = 0
    sampled: int = 0
    pruned: int = 0
    completed: int = 0
    rounds: int = 0


@dataclass
class _Candidate:
    trendline: Trendline
    trees: List[IncrementalSegmentTree]
    alive: bool = True


def tree_upper_bound(trendline: Trendline, chain, tree: IncrementalSegmentTree) -> float:
    """Upper bound on a chain's final score from its current tables.

    Every unit's final segment is either one of its placements recorded
    in a current entry, or a merge of two boundary placements — whose
    fitted slope is (approximately) a blend of the recorded placements'
    slopes.  Per Table 7 the unit's score is therefore bounded by the
    score extremes over those recorded slopes (with the flat/θ straddle
    special case and the regression-slack margin of
    :attr:`SlopeUnit.BOUNDS_MARGIN`); Property 5.1 composes the per-unit
    bounds through the CONCAT weights.  Unlike bounds from raw
    level-granularity windows, this stays valid for placements finer
    than the current level.
    """
    k = len(chain.units)
    slopes_per_unit: List[List[float]] = [[] for _ in range(k)]
    prefix = trendline.prefix
    for table in tree.tables:
        for (i, _j), entry in table.items():
            for offset, (start, end) in enumerate(entry[1]):
                if end - start >= MIN_SEGMENT_BINS:
                    slopes_per_unit[i + offset].append(prefix.slope(start, end))
    upper = 0.0
    for cu, slopes in zip(chain.units, slopes_per_unit):
        if slopes and isinstance(cu.unit, SlopeUnit):
            _, unit_upper = cu.unit.bounds_from_slopes(np.asarray(slopes))
        else:
            unit_upper = 1.0
        upper += cu.weight * unit_upper
    return upper


def decimate(trendline: Trendline, max_points: int) -> Trendline:
    """Uniform point subsample used by the stage-1 sampler."""
    n = len(trendline.bin_x)
    if n <= max_points:
        return trendline
    stride = max(1, n // max_points)
    return build_trendline(
        trendline.key,
        trendline.bin_x[::stride],
        trendline.bin_y[::stride],
    )


def prune_and_rank(
    trendlines: List[Trendline],
    query: CompiledQuery,
    k: int,
    sample_size: int = 20,
    sample_points: int = 64,
    steps_per_round: int = 2,
    report: Optional[PruningReport] = None,
    kernel: Optional[str] = None,
) -> List[Tuple[Trendline, QueryResult]]:
    """Top-k visualizations for a fully fuzzy query
    (:func:`~repro.engine.shape_index.is_prunable`) under two-stage pruning.

    ``kernel`` selects the DP transition kernel for the stage-1 sampled
    solves (the two kernels are byte-identical, so this only matters for
    honest loop-vs-matrix timing comparisons).
    """
    report = report if report is not None else PruningReport()
    report.candidates = len(trendlines)

    # ---- Stage 1: sampled lower bound ---------------------------------
    floor = -float("inf")
    if trendlines and sample_size > 0:
        stride = max(1, len(trendlines) // sample_size)
        sampled_scores: List[float] = []
        for trendline in trendlines[::stride][:sample_size]:
            reduced = decimate(trendline, sample_points)
            result = solve_query(reduced, query, kernel=kernel)
            sampled_scores.append(result.score)
            report.sampled += 1
        if len(sampled_scores) >= k:
            floor = sorted(sampled_scores, reverse=True)[k - 1]

    # ---- Stage 2: collective level-wise refinement ---------------------
    candidates: List[_Candidate] = []
    heap: List[Tuple[float, int]] = []  # (score, candidate id) min-heap
    results: Dict[int, Tuple[Trendline, QueryResult]] = {}

    def offer(identifier: int, trendline: Trendline, result: QueryResult) -> None:
        nonlocal floor
        report.completed += 1
        results[identifier] = (trendline, result)
        heapq.heappush(heap, (result.score, identifier))
        if len(heap) > k:
            heapq.heappop(heap)
        if len(heap) == k:
            floor = max(floor, heap[0][0])

    for identifier, trendline in enumerate(trendlines):
        if trendline.n_bins < MIN_SEGMENT_BINS * query.k:
            continue
        trees = [
            IncrementalSegmentTree(trendline, list(chain.units), 0, trendline.n_bins)
            for chain in query.chains
        ]
        candidates.append(_Candidate(trendline=trendline, trees=trees))

    active = list(range(len(candidates)))
    while active:
        report.rounds += 1
        still_active: List[int] = []
        for index in active:
            candidate = candidates[index]
            for _ in range(steps_per_round):
                for tree in candidate.trees:
                    tree.step()
            if all(tree.done for tree in candidate.trees):
                result = _complete(candidate, query)
                offer(index, candidate.trendline, result)
                continue
            upper = max(
                tree_upper_bound(candidate.trendline, chain, tree)
                for chain, tree in zip(query.chains, candidate.trees)
            )
            if not survives_floor(upper, floor):
                candidate.alive = False
                report.pruned += 1
                continue
            still_active.append(index)
        active = still_active

    ranked = sorted(results.values(), key=lambda item: (-item[1].score, str(item[0].key)))
    return ranked[:k]


def _complete(candidate: _Candidate, query: CompiledQuery) -> QueryResult:
    """Assemble the final QueryResult from the finished trees."""
    best: Optional[QueryResult] = None
    for chain_index, (chain, tree) in enumerate(zip(query.chains, candidate.trees)):
        entry = tree.tables[0].get((0, chain.k - 1)) if tree.tables else None
        if entry is None:
            solution = ChainSolution(score=INFEASIBLE)
        else:
            placements = list(entry[1])
            solution = _finalize(candidate.trendline, chain, placements, None, True)
        if best is None or solution.score > best.score:
            best = QueryResult(score=solution.score, chain_index=chain_index, solution=solution)
    return best
