"""Two-stage collective pruning (paper §6.3).

Stage 1 — *identifying lower bounds*: a small sample of candidate
visualizations is scored with the DP algorithm on a uniform subsample of
their points; the k-th best sampled score becomes the initial top-k
floor λ.

Stage 2 — *refining and pruning*: every candidate builds its SegmentTree
bottom-up, but all candidates advance **together**, a few levels per
round.  Between rounds each candidate's upper bound is recomputed from
its current level's node slopes (Table 7 + Property 5.1 composition, see
:mod:`benchmarks.paper.bounds`); candidates whose upper bound falls below λ
are discarded without ever reaching the root.  Candidates that complete
update λ through a top-k heap, tightening the floor for everyone else —
which is why the technique shines on needle-in-a-haystack patterns.

This is the paper's technique as evaluation apparatus, not an engine
plan: the engine's exact pruning is the shape index's bound frontier
plus push-down's eager bound.  The Fig 10 and Fig 13 benchmarks call
:func:`prune_and_rank` directly to measure §6.3.

Its data structure, :class:`IncrementalSegmentTree`, is the dict-of-tuples
SegmentTree (§6.2), one trendline at a time, built level by level so the
driver can read every entry's placements between rounds.  It builds the
same tables as the engine's :class:`~repro.engine.segment_tree.BatchedSegmentTree`
and is that kernel's parity oracle (``tests/test_segment_tree_batched.py``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.chains import ChainUnit, CompiledQuery
from repro.engine.dynamic import ChainSolution, QueryResult, _finalize, solve_query
from repro.engine.segment_tree import leaf_ranges
from repro.engine.shape_index import survives_floor
from repro.engine.trendline import Trendline, build_trendline
from repro.engine.units import (
    INFEASIBLE,
    MIN_SEGMENT_BINS,
    SlopeUnit,
    default_leaf_size,
    run_min_length,
)

#: A table entry: (weighted score sum, per-unit placements, per-unit scores).
Entry = Tuple[float, Tuple[Tuple[int, int], ...], Tuple[float, ...]]

#: A node table: subchain (i, j) -> best Entry.
Table = Dict[Tuple[int, int], Entry]


class IncrementalSegmentTree:
    """Level-wise bottom-up construction of the SegmentTree tables."""

    def __init__(
        self,
        trendline: Trendline,
        units: List[ChainUnit],
        lo: int,
        hi: int,
        context: Optional[dict] = None,
        leaf_size: Optional[int] = None,
    ):
        self.trendline = trendline
        self.units = units
        self.context = context
        self.min_len = run_min_length(lo, hi, max(1, len(units)))
        if leaf_size is None:
            leaf_size = default_leaf_size(self.min_len)
        self.ranges = leaf_ranges(lo, hi, leaf_size)
        self.tables = self._leaf_tables()

    @property
    def done(self) -> bool:
        return len(self.tables) <= 1

    def step(self) -> None:
        """Combine one level: adjacent node pairs become parent nodes."""
        if self.done:
            return
        final = len(self.tables) == 2
        pairs = [
            (self.tables[i], _by_start(self.tables[i + 1]))
            for i in range(0, len(self.tables) - 1, 2)
        ]
        merged = self._merged_scores(pairs)
        new_tables = [
            self._combine(left, right, scores, final=final)
            for (left, right), scores in zip(pairs, merged)
        ]
        new_ranges = [
            (self.ranges[i][0], self.ranges[i + 1][1])
            for i in range(0, len(self.tables) - 1, 2)
        ]
        if len(self.tables) % 2 == 1:
            new_tables.append(self.tables[-1])
            new_ranges.append(self.ranges[-1])
        self.tables = new_tables
        self.ranges = new_ranges

    def run(self) -> Optional[Entry]:
        """Build to the root and return the full-chain entry (or None)."""
        while not self.done:
            self.step()
        return self.tables[0].get((0, len(self.units) - 1)) if self.tables else None

    # -- internals ---------------------------------------------------------
    def _leaf_tables(self) -> List[Table]:
        """Score every unit over every leaf range in one batched pass.

        This is the same unit kernel the matrix DP rides
        (:meth:`~repro.engine.units.CompiledUnit.score_pairs`): slope and
        line units evaluate all leaves with one vectorized prefix query
        instead of one Python call per (unit, leaf) pair.
        """
        starts = np.array([l for l, _ in self.ranges])
        ends = np.array([r for _, r in self.ranges])
        tables: List[Table] = [{} for _ in self.ranges]
        for i, cu in enumerate(self.units):
            scores = cu.unit.score_pairs(self.trendline, starts, ends, self.context)
            for table, (l, r), score in zip(tables, self.ranges, scores):
                score = float(score)
                table[(i, i)] = (cu.weight * score, ((l, r),), (score,))
        return tables

    def _merged_scores(self, pairs) -> List[Dict[Tuple[int, int, int], float]]:
        """Re-score every merge of this level: one ``score_pairs`` per unit.

        For each sibling pair, every left ``[i..m]`` meets every right
        ``[m..j]``; the shared unit ``m`` then spans ``[a, b)`` — from
        the start of its left part to the end of its right part.  A
        merge that would leave an *interior* unit under the width floor
        is never offered and therefore never scored.  Merges go through
        the same vectorized unit kernel as the leaves, so one unit over
        one range carries one score everywhere in the tree (a scalar
        ``math.atan`` here would disagree with the leaves' ``np.arctan``
        in the last bit for a fraction of slopes).
        """
        requests: List[List[tuple]] = [[] for _ in self.units]
        for pair, (left, right_by_start) in enumerate(pairs):
            for (i, m), (_wsum, l_place, _scores) in left.items():
                for j, (_r_wsum, r_place, _r_scores) in right_by_start.get(m, ()):
                    a = l_place[-1][0]
                    b = r_place[0][1]
                    if i < m and m < j and b - a < self.min_len:
                        continue
                    requests[m].append((pair, i, j, a, b))
        merged: List[Dict[Tuple[int, int, int], float]] = [{} for _ in pairs]
        for m, (cu, wanted) in enumerate(zip(self.units, requests)):
            if not wanted:
                continue
            scores = cu.unit.score_pairs(
                self.trendline,
                np.array([a for _pair, _i, _j, a, _b in wanted]),
                np.array([b for _pair, _i, _j, _a, b in wanted]),
                self.context,
            )
            for (pair, i, j, _a, _b), score in zip(wanted, scores):
                merged[pair][(i, m, j)] = float(score)
        return merged

    def _combine(self, left: Table, right_by_start, merged, final: bool = False) -> Table:
        """Combine two sibling tables; ``final`` marks the root combine,
        where boundary placements can no longer grow and entries meeting
        the width floor on *every* placement are preferred."""
        units = self.units
        out: Table = {}
        strict: Table = {}

        def offer(key, entry):
            current = out.get(key)
            if current is None or entry[0] > current[0]:
                out[key] = entry
            if final:
                places = entry[1]
                if (
                    places[0][1] - places[0][0] >= self.min_len
                    and places[-1][1] - places[-1][0] >= self.min_len
                ):
                    best = strict.get(key)
                    if best is None or entry[0] > best[0]:
                        strict[key] = entry

        min_len = self.min_len
        for (i, m), (l_wsum, l_place, l_scores) in left.items():
            # Adjacent: [i..m] ⊗ [m+1..j].  A placement that becomes
            # *interior* here is final and must meet the width floor.
            left_last_ok = i == m or l_place[-1][1] - l_place[-1][0] >= min_len
            for j, (r_wsum, r_place, r_scores) in right_by_start.get(m + 1, ()):
                if not left_last_ok:
                    break
                if m + 1 < j and r_place[0][1] - r_place[0][0] < min_len:
                    continue
                offer((i, j), (l_wsum + r_wsum, l_place + r_place, l_scores + r_scores))

            # Merge: the shared unit m spans the node boundary.
            for j, (r_wsum, r_place, r_scores) in right_by_start.get(m, ()):
                merged_score = merged.get((i, m, j))
                if merged_score is None:
                    continue  # under the interior width floor: never offered
                weight = units[m].weight
                wsum = (
                    l_wsum
                    - weight * l_scores[-1]
                    + r_wsum
                    - weight * r_scores[0]
                    + weight * merged_score
                )
                offer(
                    (i, j),
                    (
                        wsum,
                        l_place[:-1] + ((l_place[-1][0], r_place[0][1]),) + r_place[1:],
                        l_scores[:-1] + (merged_score,) + r_scores[1:],
                    ),
                )
        if final:
            # Width-floor-compliant entries win at the root; entries with
            # an undersized boundary survive only as fallbacks.
            out.update(strict)
        return out


def _by_start(table: Table) -> Dict[int, List[Tuple[int, Entry]]]:
    """A right-hand table's entries grouped by first unit, in table order."""
    grouped: Dict[int, List[Tuple[int, Entry]]] = {}
    for (start, j), entry in table.items():
        grouped.setdefault(start, []).append((j, entry))
    return grouped


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
