"""Exhaustive segmentation: the brute-force oracle (paper §6 "naive").

Enumerates every way of placing a chain's fuzzy units over the
visualization — ``O(n^(k−1))`` SegmentedVizs — and scores each.  This is
hopeless at paper scale (the paper's motivating example: 10⁴ layouts for
a 3-segment query over 100 points) but it is *exact*, including POSITION
references (each candidate layout is finalized with its own slope
context), so the test suite uses it as ground truth for the DP and
SegmentTree engines on small inputs.
"""

from __future__ import annotations

from itertools import product
from typing import List, Optional, Tuple

from repro.engine.chains import Chain, CompiledQuery
from repro.engine.dynamic import (
    ChainSolution,
    QueryResult,
    _finalize,
    plan_layout,
)
from repro.engine.trendline import Trendline
from repro.engine.units import INFEASIBLE, MIN_SEGMENT_BINS, run_min_length

#: Safety valve: refuse enumerations beyond this many layouts.
MAX_LAYOUTS = 2_000_000


def enumerate_run_placements(
    m: int, lo: int, hi: int, min_len: int = MIN_SEGMENT_BINS
) -> List[List[Tuple[int, int]]]:
    """All full covers of ``[lo, hi)`` by ``m`` units of >= ``min_len`` bins."""
    if m == 0:
        return [[]]
    if hi - lo < min_len * m:
        return []
    if m == 1:
        return [[(lo, hi)]]
    placements: List[List[Tuple[int, int]]] = []
    # First unit takes [lo, s); the rest recursively cover [s, hi).
    for s in range(lo + min_len, hi - min_len * (m - 1) + 1):
        for rest in enumerate_run_placements(m - 1, s, hi, min_len):
            placements.append([(lo, s)] + rest)
    return placements


def exhaustive_solve_chain(
    trendline: Trendline,
    chain: Chain,
    lo: Optional[int] = None,
    hi: Optional[int] = None,
    context: Optional[dict] = None,
) -> ChainSolution:
    """Exact best placement of a chain by enumerating all layouts."""
    lo = 0 if lo is None else lo
    hi = trendline.n_bins if hi is None else hi
    layout = plan_layout(trendline, chain, lo, hi)
    per_piece: List[List[List[Optional[Tuple[int, int]]]]] = []
    piece_indices: List[List[int]] = []
    for piece in layout:
        piece_indices.append(piece.indices)
        if piece.kind == "pinned":
            per_piece.append([[(piece.start, piece.end)]])
            continue
        min_len = run_min_length(piece.start, piece.end, len(piece.indices))
        options = enumerate_run_placements(
            len(piece.indices), piece.start, piece.end, min_len
        )
        if not options:
            options = [[None] * len(piece.indices)]
        per_piece.append(options)

    total_layouts = 1
    for options in per_piece:
        total_layouts *= len(options)
    if total_layouts > MAX_LAYOUTS:
        raise MemoryError(
            "exhaustive enumeration of {} layouts refused; use the DP engine".format(
                total_layouts
            )
        )

    best: Optional[ChainSolution] = None
    for combo in product(*per_piece):
        placements: List[Optional[Tuple[int, int]]] = [None] * chain.k
        feasible = True
        for indices, bounds_list in zip(piece_indices, combo):
            for i, bounds in zip(indices, bounds_list):
                placements[i] = bounds
                if bounds is None:
                    feasible = False
        solution = _finalize(trendline, chain, placements, context, feasible)
        if best is None or solution.score > best.score:
            best = solution
    return best if best is not None else ChainSolution(score=INFEASIBLE)


def exhaustive_solve_query(
    trendline: Trendline,
    query: CompiledQuery,
    lo: Optional[int] = None,
    hi: Optional[int] = None,
) -> QueryResult:
    """Exact query score: max of :func:`exhaustive_solve_chain` over chains."""
    best: Optional[QueryResult] = None
    for index, chain in enumerate(query.chains):
        solution = exhaustive_solve_chain(trendline, chain, lo=lo, hi=hi)
        if best is None or solution.score > best.score:
            best = QueryResult(score=solution.score, chain_index=index, solution=solution)
    return best
