"""Optimal fuzzy segmentation via dynamic programming (paper §6.1).

Implements the recurrence of Theorem 6.1/6.2 in O(n²k) per alternative
chain: ``OPT(j, r)`` is the best weighted score of fitting the first
``j`` fuzzy units of a chain so that they exactly cover the bins
``[lo, r)``.

Two kernels drive the transitions:

* ``"matrix"`` (the default) — each DP layer is computed from tiled
  *(splits × ends)* unit score matrices
  (:meth:`~repro.engine.units.CompiledUnit.score_matrix`):
  ``opt[j, ends] = max over splits of (opt[j-1, splits][:, None]
  + weight · W[splits, ends])`` — one masked ``np.max``/``np.argmax``
  per tile instead of one Python iteration per end bin.  Ends are tiled
  in fixed-size blocks (:data:`MATRIX_TILE`) so peak memory stays
  O(n·B) however long the trendline is.
* ``"loop"`` — the retained reference kernel: a Python loop over end
  bins with the inner maximization vectorized over the split point.

The two kernels are byte-identical — same scores, same placements, same
lowest-split-index tie-breaking — which the property suite asserts; the
loop kernel doubles as the oracle for the matrix kernel.

Hybrid (partially pinned) chains are handled exactly: x-pinned units are
scored at their pinned bins, and each maximal run of fuzzy units between
pins becomes an independent full-cover sub-problem (paper §6's remark
that hybrid queries reduce to fuzzy segmentation around the non-fuzzy
VisualSegments).

POSITION references are resolved with a second pass: once boundaries are
fixed, every unit is re-scored with the fitted slopes of all units in
context, and the reported per-unit scores always come from that final
pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.chains import Chain, ChainUnit, CompiledQuery
from repro.engine.statistics import PrefixStats
from repro.engine.trendline import Trendline, trendline_extends
from repro.engine.units import INFEASIBLE, MIN_SEGMENT_BINS, plain_slope, run_min_length

_NEG_INF = -np.inf

#: Supported DP transition kernels (see module docstring).
KERNELS = ("matrix", "loop")

#: Kernel used when no explicit choice is made.
DEFAULT_KERNEL = "matrix"

#: Solve-context key carrying the active kernel into nested/AND
#: sub-solves (their fuzzy runs dispatch through the same context), so
#: ``kernel="loop"`` is honored end to end, not just at the top level.
KERNEL_KEY = "__kernel__"

#: End bins per block of the matrix kernel: each layer materializes at
#: most (n splits × MATRIX_TILE ends) unit scores at a time, keeping
#: peak memory O(n·B) while amortizing the per-tile numpy dispatch.
MATRIX_TILE = 256

#: Share the ``tan⁻¹`` transform of a tile's slope matrix across all of
#: its slope-based layers (on by default).  At n ≳ 3000 the matrix
#: kernel is bandwidth/transcendental-bound on the slope algebra; paying
#: the arctan once per tile instead of once per layer lifts that regime.
#: The flag exists so benchmarks can measure the per-layer path and the
#: property suite can assert the two are byte-identical.
SHARE_ATAN = True


@dataclass
class PlacedUnit:
    """A unit's final placement: bins ``[start, end)`` and its scores."""

    seg_index: int
    start: int
    end: int
    score: float
    weight: float
    slope: float


@dataclass
class ChainSolution:
    """Result of solving one alternative chain on one trendline."""

    score: float
    placements: List[PlacedUnit] = field(default_factory=list)

    @property
    def boundaries(self) -> List[int]:
        bounds: List[int] = []
        for placed in self.placements:
            if not bounds or bounds[-1] != placed.start:
                bounds.append(placed.start)
            bounds.append(placed.end)
        return bounds


@dataclass
class QueryResult:
    """Best solution across a query's alternative chains."""

    score: float
    chain_index: int
    solution: ChainSolution


class ScoreBlock(Sequence[QueryResult]):
    """One Score call's results over a block of candidates, by column.

    ``scores`` (float64, the bits each result reports) and
    ``chain_index`` (first-best chain) per candidate; per chain the
    placements, as arrays (columnar final pass) or ChainSolutions.  A
    candidate's :class:`QueryResult` is built on first access, once, so
    a shard keeping k of C pays for k; the block compares equal to the
    list it stands for.
    """

    def __init__(self, count: int):
        self.scores = np.empty(count)
        self.chain_index = np.zeros(count, dtype=np.intp)
        self._chains: list = []  # per chain: columns tuple or ChainSolution list
        self._results: List[Optional[QueryResult]] = [None] * count

    @classmethod
    def of(cls, results: Sequence[QueryResult]) -> "ScoreBlock":
        """A block over results already built (the per-candidate algorithms)."""
        block = cls(len(results))
        block.scores[:] = [result.score for result in results]
        block.chain_index[:] = [result.chain_index for result in results]
        block._results = list(results)
        return block

    def _offer(self, index: int, totals: np.ndarray, chain) -> None:
        """Chain ``index`` takes a candidate on a strictly greater total."""
        better = totals > self.scores if index else slice(None)
        self.scores[better] = totals[better]
        self.chain_index[better] = index
        self._chains.append(chain)

    def __len__(self) -> int:
        return len(self._results)

    def __getitem__(self, c):
        if isinstance(c, slice):
            return [self[i] for i in range(*c.indices(len(self)))]
        result = self._results[c]
        if result is None:
            index = int(self.chain_index[c])
            chain = self._chains[index]
            if isinstance(chain, list):
                solution = chain[c]
            else:
                units, totals, *columns = chain
                rows = zip(units, *(column[c].tolist() for column in columns))
                solution = ChainSolution(float(totals[c]), [
                    PlacedUnit(cu.unit.seg_index, start, end, score, cu.weight, slope)
                    for cu, start, end, score, slope in rows
                ])
            result = self._results[c] = QueryResult(solution.score, index, solution)
        return result

    def __eq__(self, other):
        if isinstance(other, (ScoreBlock, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable, compared by value


def solve_query(
    trendline: Trendline,
    query: CompiledQuery,
    lo: Optional[int] = None,
    hi: Optional[int] = None,
    run_solver=None,
    context: Optional[dict] = None,
    kernel: Optional[str] = None,
) -> QueryResult:
    """Score a compiled query on a trendline: max over alternative chains.

    ``run_solver`` swaps the fuzzy-run algorithm (DP by default; the
    SegmentTree and greedy engines plug in here); ``kernel`` instead
    picks the DP transition kernel and records it in the solve context
    so nested/AND sub-solves use the same one.  The solve context is
    shared across the alternative chains so per-trendline memos (e.g.
    QuantifierUnit's classified runs) carry across chains that share
    units.
    """
    best: Optional[QueryResult] = None
    if context is None:
        context = {}
    if kernel is not None:
        context[KERNEL_KEY] = kernel
        if run_solver is None:
            run_solver = fuzzy_run_solver(kernel)
    for index, chain in enumerate(query.chains):
        solution = solve_chain(
            trendline, chain, lo=lo, hi=hi, context=context, run_solver=run_solver
        )
        if best is None or solution.score > best.score:
            best = QueryResult(score=solution.score, chain_index=index, solution=solution)
    return best


def solve_query_over_range(
    trendline: Trendline,
    query: CompiledQuery,
    lo: int,
    hi: int,
    context: Optional[dict] = None,
) -> QueryResult:
    """Entry point for NestedUnit: solve the sub-query inside ``[lo, hi)``.

    ``context`` carries only solve-scoped auxiliaries (kernel choice,
    runs memo) — the nested query has its own segment-index space, so
    the caller must not leak its slope context in here.
    """
    return solve_query(trendline, query, lo=lo, hi=hi, context=context)


@dataclass
class TailSolveState:
    """DP state retained across streaming appends for one (trendline, query).

    Holds the trendline the state was computed on (to gate reuse via
    :func:`~repro.engine.trendline.trendline_extends`) and one
    :class:`FuzzyRunState` (or None) per alternative chain.
    """

    trendline: Trendline
    chains: List[Optional[FuzzyRunState]]

    def state_nbytes(self) -> int:
        """Retained bytes: the DP tables plus the pinned trendline arrays.

        The trendline is counted because the state holds it strongly for
        the ``trendline_extends`` reuse gate — for eviction-accounting
        purposes those arrays are retained *by this state*, whether or
        not other live references share them.
        """
        total = 0
        for state in self.chains:
            if state is not None:
                total += state.opt.nbytes + state.split.nbytes
        trendline = self.trendline
        for values in (
            trendline.x,
            trendline.y,
            trendline.bin_x,
            trendline.bin_y,
            trendline.norm_bin_y,
        ):
            total += values.nbytes
        prefix = trendline.prefix
        if prefix.stacked is not None:
            total += prefix.stacked.nbytes
        else:
            total += (
                prefix.count.nbytes
                + prefix.sx.nbytes
                + prefix.sy.nbytes
                + prefix.sxy.nbytes
                + prefix.sxx.nbytes
            )
        return total


def solve_query_extend(
    trendline: Trendline,
    query: CompiledQuery,
    state: Optional[TailSolveState] = None,
    kernel: Optional[str] = None,
) -> Tuple[QueryResult, Optional[TailSolveState]]:
    """Suffix re-solve: :func:`solve_query` that reuses retained DP state.

    Byte-identical to a cold :func:`solve_query` on the same inputs —
    retained tables only ever *skip recomputing* cells whose inputs are
    bitwise unchanged (the :func:`trendline_extends` gate), never change
    a value.  Only the matrix kernel retains state; ``kernel="loop"``
    (the oracle) always solves cold and returns ``state=None``.  State
    is also dropped (cold solve) when the trendline's history changed —
    on live appends the z-scored normalization typically shifts with
    every batch, so this path degrades gracefully to exactly the cold
    solve rather than ever trading accuracy for reuse.
    """
    if (kernel or DEFAULT_KERNEL) != "matrix":
        return solve_query(trendline, query, kernel=kernel), None
    context: dict = {}
    if kernel is not None:
        context[KERNEL_KEY] = kernel
    usable = (
        state is not None
        and len(state.chains) == len(query.chains)
        and trendline_extends(state.trendline, trendline)
    )
    best: Optional[QueryResult] = None
    new_chain_states: List[Optional[FuzzyRunState]] = []
    for index, chain in enumerate(query.chains):
        chain_state = state.chains[index] if usable else None
        solution, new_chain_state = _solve_chain_stateful(
            trendline, chain, chain_state, context
        )
        new_chain_states.append(new_chain_state)
        if best is None or solution.score > best.score:
            best = QueryResult(score=solution.score, chain_index=index, solution=solution)
    return best, TailSolveState(trendline=trendline, chains=new_chain_states)


def _solve_chain_stateful(
    trendline: Trendline,
    chain: Chain,
    state: Optional[FuzzyRunState],
    context: dict,
) -> Tuple[ChainSolution, Optional[FuzzyRunState]]:
    """:func:`solve_chain` over the full trendline, retaining DP tables.

    State is carried only for the common single-piece layout (one run of
    fuzzy units, possibly bounded by one-sided pins); multi-piece hybrid
    layouts fall back to the plain solve — their per-piece tables are
    small and pin positions may move as bins arrive.
    """
    layout = plan_layout(trendline, chain, 0, trendline.n_bins)
    if len(layout) != 1 or layout[0].kind != "fuzzy":
        return solve_chain(trendline, chain, context=context), None
    piece = layout[0]
    units = [chain.units[i] for i in piece.indices]
    result, new_state = solve_fuzzy_run_extend(
        trendline, units, piece.start, piece.end, context, state
    )
    placements: List[Optional[Tuple[int, int]]] = [None] * chain.k
    feasible = _place_run(placements, piece.indices, piece.start, result)
    return _finalize(trendline, chain, placements, context, feasible), new_state


def solve_chain(
    trendline: Trendline,
    chain: Chain,
    lo: Optional[int] = None,
    hi: Optional[int] = None,
    context: Optional[dict] = None,
    run_solver=None,
) -> ChainSolution:
    """Optimally place one chain's units on ``trendline`` bins ``[lo, hi)``."""
    solver = run_solver if run_solver is not None else _solve_fuzzy_run
    lo = 0 if lo is None else lo
    hi = trendline.n_bins if hi is None else hi
    placements: List[Optional[Tuple[int, int]]] = [None] * chain.k
    feasible = True
    for piece in plan_layout(trendline, chain, lo, hi):
        if piece.kind == "pinned":
            placements[piece.indices[0]] = (piece.start, piece.end)
            continue
        result = solver(
            trendline,
            [chain.units[i] for i in piece.indices],
            piece.start,
            piece.end,
            context,
        )
        feasible &= _place_run(placements, piece.indices, piece.start, result)

    return _finalize(trendline, chain, placements, context, feasible)


def solve_query_batched(
    trendlines: Sequence[Trendline],
    query: CompiledQuery,
    batch_solver,
) -> ScoreBlock:
    """:func:`solve_query` for many trendlines under a batched run solver.

    ``batch_solver(trendlines, units, bounds, contexts, prefix)`` solves
    one fuzzy run of ``units`` for every trendline it is handed — each
    over its own ``bounds[c] = (lo, hi)``, ``prefix`` their rows end to
    end (:meth:`~repro.engine.statistics.PrefixStats.concatenate`, built
    once here when a plain slope unit gathers from it) — and returns
    their placements in order.  Per chain, every candidate's run over the
    same units shares one call (pins may put it at different bins per
    candidate); pinned units, the per-trendline solve context shared
    across chains, the final scoring pass and the first-best-chain rule
    are :func:`solve_query`'s, so each result equals the per-trendline
    solve under the one-candidate case of the same solver.  The final
    pass runs as columns for chains of plain slope units, per candidate
    for the rest.
    """
    block = ScoreBlock(len(trendlines))
    if not trendlines:
        return block
    contexts: List[dict] = [{} for _ in trendlines]
    prefix = None
    if any(plain_slope(cu.unit) for chain in query.chains for cu in chain.units):
        prefix = PrefixStats.concatenate([trendline.prefix for trendline in trendlines])
    for index, chain in enumerate(query.chains):
        placements, feasible = _place_chain(trendlines, chain, contexts, batch_solver, prefix)
        if all(plain_slope(cu.unit) for cu in chain.units):
            totals, columns = _finalize_columns(chain, placements, feasible, prefix)
            block._offer(index, totals, columns)
        else:
            solutions = _finalize_each(trendlines, chain, placements, contexts, feasible)
            block._offer(index, np.array([s.score for s in solutions]), solutions)
    return block


def _place_chain(trendlines, chain: Chain, contexts, batch_solver, prefix):
    """Every candidate's placements of one chain, and whether each fits.
    Without x pins the layout is one run over each whole trendline, so
    only pinned chains are planned candidate by candidate."""
    k = chain.k
    placements: List[List[Optional[Tuple[int, int]]]] = [[None] * k for _ in trendlines]
    feasible = [True] * len(trendlines)
    runs: dict = {}  # unit indices -> [(candidate number, (start, end))]
    locations = [cu.unit.location for cu in chain.units]
    if any(loc.x_start is not None or loc.x_end is not None for loc in locations):
        for c, trendline in enumerate(trendlines):
            for piece in plan_layout(trendline, chain, 0, trendline.n_bins):
                if piece.kind == "pinned":
                    placements[c][piece.indices[0]] = (piece.start, piece.end)
                else:
                    runs.setdefault(tuple(piece.indices), []).append(
                        (c, (piece.start, piece.end))
                    )
    else:
        runs[tuple(range(k))] = [(c, (0, t.n_bins)) for c, t in enumerate(trendlines)]
    for indices, members in runs.items():
        chosen = [c for c, _bounds in members]
        results = batch_solver(
            [trendlines[c] for c in chosen],
            [chain.units[i] for i in indices],
            [bounds for _c, bounds in members],
            [contexts[c] for c in chosen],
            None if prefix is None else (prefix[0], prefix[1][chosen]),
        )
        for (c, (start, _end)), result in zip(members, results):
            feasible[c] &= _place_run(placements[c], indices, start, result)
    return placements, feasible


def _finalize_columns(chain: Chain, placements, feasible, prefix):
    """:func:`_finalize` of a plain-slope chain for a whole block, bit for
    bit: one ``_slopes`` gather (bitwise ``slope()``), ``math.atan`` of
    each slope (``np.arctan`` differs in the last bit for a fraction of
    them), :meth:`~repro.engine.units.SlopeUnit.score_from_atan`, totals
    summed unit by unit from 0.0.  Plain units read no POSITION context.
    Returns the totals and the columns :class:`ScoreBlock` keeps."""
    stats, offsets = prefix
    bounds = np.array(placements, dtype=np.intp).reshape(len(placements), chain.k, 2)
    starts, ends = bounds[..., 0], bounds[..., 1]
    shift = offsets[:, None]
    slopes = stats._slopes(starts + shift, ends + shift)
    short = ends - starts < MIN_SEGMENT_BINS
    slopes[short] = 0.0
    atans = np.array(list(map(math.atan, slopes.ravel().tolist()))).reshape(slopes.shape)
    scores = np.empty(slopes.shape)
    for u, cu in enumerate(chain.units):
        scores[:, u] = cu.unit.score_from_atan(atans[:, u])
    scores[short] = INFEASIBLE
    totals = np.zeros(len(placements))
    for u, cu in enumerate(chain.units):
        totals += cu.weight * scores[:, u]
    totals[np.logical_not(feasible)] = INFEASIBLE
    return totals, (chain.units, totals, starts, ends, scores, slopes)


def _finalize_each(trendlines, chain: Chain, placements, contexts, feasible):
    """The per-candidate final pass, for chains with a unit the columnar
    one does not cover (POSITION, sketches, quantifiers, lines, nested
    queries, UDPs, y-constrained slopes)."""
    return [
        _finalize(trendline, chain, places, context, fits)
        for trendline, places, context, fits in zip(trendlines, placements, contexts, feasible)
    ]


def _place_run(placements, indices, start: int, result) -> bool:
    """Record a fuzzy run's placements; an unsolvable run collapses its
    units onto ``start`` and reports the chain infeasible."""
    if result is None:
        for i in indices:
            placements[i] = (start, start)
        return False
    for i, bounds in zip(indices, result):
        placements[i] = bounds
    return True


def solve_chain_exact_cover(
    trendline: Trendline,
    chain: Chain,
    lo: int,
    hi: int,
    context: Optional[dict] = None,
) -> ChainSolution:
    """Fit a chain to cover exactly ``[lo, hi)`` (used inside AND units)."""
    return solve_chain(trendline, chain, lo=lo, hi=hi, context=context)


# ---------------------------------------------------------------------------
# Layout planning: pins split the chain into independent runs
# ---------------------------------------------------------------------------


@dataclass
class LayoutPiece:
    """A maximal run of fuzzy units (or one pinned unit) and its bin range."""

    kind: str  # "pinned" | "fuzzy"
    indices: List[int]
    start: int
    end: int


def plan_layout(trendline: Trendline, chain: Chain, lo: int, hi: int) -> List[LayoutPiece]:
    """Split a chain around its x-pinned units.

    Fuzzy runs must exactly cover the space between the surrounding fixed
    boundaries; a single-sided pin (only x.s or only x.e) fixes one
    boundary of its unit while the other side stays free, which the DP
    models by treating the fixed side as a run boundary.  Every unit
    lands in exactly one piece; a chain without pins is one fuzzy run
    over ``[lo, hi)``.
    """
    k = chain.k
    starts: List[Optional[int]] = [None] * k
    ends: List[Optional[int]] = [None] * k
    for i, cu in enumerate(chain.units):
        pin_start, pin_end = cu.unit.resolve_pins(trendline)
        starts[i], ends[i] = pin_start, pin_end

    pieces: List[LayoutPiece] = []
    cursor = lo
    run: List[int] = []

    def flush_run(run_end: int) -> None:
        nonlocal cursor
        if run:
            pieces.append(LayoutPiece("fuzzy", list(run), cursor, run_end))
            run.clear()
        cursor = run_end

    for i in range(k):
        fully_pinned = starts[i] is not None and ends[i] is not None
        if fully_pinned:
            flush_run(starts[i])
            pieces.append(LayoutPiece("pinned", [i], starts[i], ends[i]))
            cursor = ends[i]
        elif starts[i] is not None:  # start-only pin: fixes the left boundary
            flush_run(starts[i])
            run.append(i)
        elif ends[i] is not None:  # end-only pin: closes the current run
            run.append(i)
            flush_run(ends[i])
        else:
            run.append(i)
    flush_run(hi)
    return pieces


# ---------------------------------------------------------------------------
# Fuzzy full-cover DP (Theorem 6.2): loop and matrix transition kernels
# ---------------------------------------------------------------------------


def fuzzy_run_solver(kernel: Optional[str] = None):
    """Resolve a kernel name to its fuzzy-run solver function.

    ``None`` selects :data:`DEFAULT_KERNEL`.  Both kernels implement the
    identical recurrence and tie-breaking, so they are interchangeable;
    ``"loop"`` is kept as the reference oracle for ``"matrix"``.
    """
    kernel = DEFAULT_KERNEL if kernel is None else kernel
    if kernel == "matrix":
        return _solve_fuzzy_run_matrix
    if kernel == "loop":
        return _solve_fuzzy_run_loop
    raise ValueError(
        "unknown DP kernel {!r}; choose from {}".format(kernel, KERNELS)
    )


def _fuzzy_run_plan(lo: int, hi: int, units: List[ChainUnit]):
    """Shared feasibility triage for both kernels.

    Returns ``(handled, result, min_len)``: when ``handled`` is True the
    run needs no DP (empty, too short, or a single unit) and ``result``
    is the answer; otherwise ``min_len`` is the per-unit width floor.
    """
    m = len(units)
    if m == 0:
        return True, ([] if hi >= lo else None), 0
    if hi - lo < MIN_SEGMENT_BINS * m:
        return True, None, 0
    min_len = run_min_length(lo, hi, m)
    if m == 1:
        return True, [(lo, hi)], min_len
    return False, None, min_len


def _backtrack(split: np.ndarray, lo: int, hi: int, m: int) -> List[Tuple[int, int]]:
    """Recover per-unit boundaries from the split table."""
    bounds: List[Tuple[int, int]] = []
    r = hi
    for j in range(m - 1, 0, -1):
        s = int(split[j, r - lo])
        bounds.append((s, r))
        r = s
    bounds.append((lo, r))
    bounds.reverse()
    return bounds


def _solve_fuzzy_run_loop(
    trendline: Trendline,
    units: List[ChainUnit],
    lo: int,
    hi: int,
    context: Optional[dict],
) -> Optional[List[Tuple[int, int]]]:
    """Best exact cover of bins ``[lo, hi)`` by the given fuzzy units.

    The reference kernel: a Python loop over every end bin ``r``, with
    the inner maximization vectorized over the split point.  Returns
    per-unit ``(start, end)`` placements or None when the range cannot
    host them (fewer than 2 bins per unit available).
    """
    handled, result, min_len = _fuzzy_run_plan(lo, hi, units)
    if handled:
        return result
    m = len(units)
    length = hi - lo

    # opt[j][r-lo]: best weighted score of units[0..j] covering [lo, r).
    grid = np.arange(lo, hi + 1)
    opt = np.full((m, length + 1), _NEG_INF)
    split = np.zeros((m, length + 1), dtype=int)

    first = units[0]
    ends = grid[min_len:]
    opt[0, min_len:] = first.weight * first.unit.score_ends(
        trendline, lo, ends, context
    )

    for j in range(1, m):
        cu = units[j]
        # Valid split points m for OPT[j][r]: lo + min_len*j <= m <= r - min_len.
        min_split = lo + min_len * j
        for r in range(lo + min_len * (j + 1), hi + 1):
            ms = np.arange(min_split, r - min_len + 1)
            if len(ms) == 0:
                continue
            left = opt[j - 1, ms - lo]
            right = cu.weight * cu.unit.score_starts(trendline, ms, r, context)
            candidates = left + right
            best = int(np.argmax(candidates))
            if candidates[best] > _NEG_INF:
                opt[j, r - lo] = candidates[best]
                split[j, r - lo] = ms[best]

    if not np.isfinite(opt[m - 1, length]):
        return None
    return _backtrack(split, lo, hi, m)


def _solve_fuzzy_run_matrix(
    trendline: Trendline,
    units: List[ChainUnit],
    lo: int,
    hi: int,
    context: Optional[dict],
) -> Optional[List[Tuple[int, int]]]:
    """Matrix-kernel twin of :func:`_solve_fuzzy_run_loop`.

    Each layer ``j`` consumes tiled *(splits × ends)* unit score
    matrices: for a block of end bins the kernel materializes
    ``W[splits, ends]`` once (vectorized for slope/line units), masks
    splits outside each end's feasible window to −∞, and reduces whole
    columns with one ``argmax``.  Non-vectorized units (nested queries,
    UDPs, sketches, quantifiers) keep the loop kernel's per-column
    evaluation inside the tile structure — they gain nothing from a
    rectangular tile and would pay for cells the mask discards.  ``argmax`` returns
    the first maximum and splits are enumerated ascending, so ties
    resolve to the lowest split index — exactly the loop kernel's
    ``np.argmax`` over the same ascending candidates, which keeps the
    two kernels byte-identical.
    """
    handled, result, min_len = _fuzzy_run_plan(lo, hi, units)
    if handled:
        return result
    m = len(units)
    length = hi - lo

    opt = np.full((m, length + 1), _NEG_INF)
    split = np.zeros((m, length + 1), dtype=int)
    _matrix_fill(trendline, units, lo, hi, min_len, context, opt, split, lo)

    if not np.isfinite(opt[m - 1, length]):
        return None
    return _backtrack(split, lo, hi, m)


def _matrix_fill(
    trendline: Trendline,
    units: List[ChainUnit],
    lo: int,
    hi: int,
    min_len: int,
    context: Optional[dict],
    opt: np.ndarray,
    split: np.ndarray,
    from_end: int,
) -> None:
    """Fill the matrix kernel's DP tables for end bins ``>= from_end``.

    The cold solve passes ``from_end=lo`` (fill everything); the
    streaming suffix re-solve passes ``from_end=old_hi + 1`` with the
    previous solve's tables copied into ``opt``/``split``, so only the
    columns an append can affect are recomputed.  Per-cell DP values are
    tiling-independent — elementwise transforms commute with slicing and
    each column's maximization reads only layer ``j-1`` at split
    positions ``<= r - min_len`` — so restricting the end range produces
    bitwise the same cells a full fill would.
    """
    m = len(units)
    first = units[0]
    start0 = max(lo + min_len, from_end)
    if start0 <= hi:
        ends0 = np.arange(start0, hi + 1)
        opt[0, ends0 - lo] = first.weight * first.unit.score_ends(
            trendline, lo, ends0, context
        )

    # Tile-major wavefront over end bins.  Layers run *inside* each
    # tile (ascending j), which is dependency-safe: OPT[j][r] only reads
    # OPT[j-1] at split positions s ≤ r − min_len, all of which were
    # finalized either by an earlier tile or by layer j−1 of this tile.
    # The payoff is slope sharing: the (splits × ends) fitted-slope
    # matrix of a tile is computed once and every slope-based layer
    # (up/down/flat/θ — the overwhelmingly common case) reuses it, so
    # the expensive part of the transition work is paid once per tile
    # rather than once per layer.
    prefix = trendline.prefix
    share_slopes = any(cu.unit.slope_based for cu in units[1:])
    base_split = lo + min_len  # lowest split any layer can use
    # Earliest layer-1 end, clipped to the requested wavefront start.
    all_ends = np.arange(max(lo + 2 * min_len, from_end), hi + 1)
    for block in range(0, len(all_ends), MATRIX_TILE):
        ends_tile = all_ends[block : block + MATRIX_TILE]
        tile_first = int(ends_tile[0])
        tile_last = int(ends_tile[-1])
        splits_union = np.arange(base_split, tile_last - min_len + 1)
        shared = (
            prefix.slope_matrix(splits_union, ends_tile) if share_slopes else None
        )
        # One arctan per tile, consumed by every slope-based layer below:
        # the Table 5 transforms are all functions of tan⁻¹(slope), so
        # the transcendental — the dominant cost of the slope algebra at
        # large n — need not be recomputed per layer.
        shared_atan = (
            np.arctan(shared) if (shared is not None and SHARE_ATAN) else None
        )
        # Per-tile transform memo: layers with the same (kind, θ) — and
        # down vs up, which are exact negations — share one Table 5
        # transform of the tile's arctan matrix (see
        # SlopeUnit.tile_transform; memoized arrays are read-only by
        # convention, every consumer allocates fresh output).
        transform_memo = {} if shared_atan is not None else None
        # The (split, end) feasibility triangle is the same for every
        # layer of the tile (min_len is per-run, not per-layer); build
        # the boolean mask once over the union rectangle and let each
        # layer slice its window instead of re-deriving the comparison.
        infeasible_union = (
            splits_union[:, None] > ends_tile[None, :] - min_len
            if m > 1
            else None
        )
        for j in range(1, m):
            # Valid for OPT[j][r]: lo + min_len*j <= s <= r - min_len.
            col0 = max(0, lo + min_len * (j + 1) - tile_first)
            if col0 >= len(ends_tile):
                continue
            ends_j = ends_tile[col0:]
            cu = units[j]
            min_split = lo + min_len * j
            if not cu.unit.vectorized:
                # Expensive fallback units (nested solves, UDPs, sketches,
                # quantifiers) are evaluated per column over only the
                # feasible splits — the rectangular tile would score the
                # masked triangle too, wasting up to min_len scalar calls
                # per end bin the loop kernel never makes.  This is the
                # loop kernel's inner body verbatim, so identity is free.
                prev = opt[j - 1]
                for r in ends_j:
                    r = int(r)
                    ms = np.arange(min_split, r - min_len + 1)
                    left = prev[ms - lo]
                    right = cu.weight * cu.unit.score_starts(trendline, ms, r, context)
                    column = left + right
                    best_row = int(np.argmax(column))
                    if column[best_row] > _NEG_INF:
                        opt[j, r - lo] = column[best_row]
                        split[j, r - lo] = ms[best_row]
                continue
            row0 = min_len * (j - 1)
            splits_j = splits_union[row0:]
            loc = cu.unit.location
            if cu.unit.slope_based and shared_atan is not None and (
                loc.y_start is None and loc.y_end is None
            ):
                # Fast path: transform once over the tile union (memoized
                # across layers), slice per layer.  The width-infeasibility
                # substitution of score_matrix_from_values is dead work
                # here — every sub-MIN_SEGMENT_BINS cell lies inside the
                # −∞ triangle below (min_len ≥ MIN_SEGMENT_BINS) — so the
                # slice is consumed directly, multiplying out of place to
                # leave the shared transform intact.  Bits match the
                # per-layer path exactly: elementwise transforms commute
                # with slicing, and every skipped cell is overwritten.
                values = cu.unit.tile_transform(shared_atan, transform_memo)
                candidates = values[row0:, col0:] * cu.weight
            else:
                if cu.unit.slope_based:
                    if shared_atan is not None:
                        values = cu.unit.tile_transform(shared_atan, transform_memo)
                        scores = cu.unit.score_matrix_from_values(
                            trendline, splits_j, ends_j, values[row0:, col0:]
                        )
                    else:
                        scores = cu.unit.score_matrix_from_slopes(
                            trendline, splits_j, ends_j, shared[row0:, col0:], context
                        )
                else:
                    scores = cu.unit.score_matrix(trendline, splits_j, ends_j, context)
                # candidates = opt[j-1][s] + weight·W[s, r], built in place
                # on the tile's score matrix (fresh per layer; IEEE
                # addition is commutative, so left + w·W and w·W + left
                # agree bit for bit with the loop kernel).
                candidates = np.multiply(scores, cu.weight, out=scores)
            candidates += opt[j - 1][splits_j - lo][:, None]
            candidates[infeasible_union[row0:, col0:]] = _NEG_INF
            best = np.argmax(candidates, axis=0)
            best_values = candidates[best, np.arange(len(ends_j))]
            take = best_values > _NEG_INF
            columns = (ends_j - lo)[take]
            opt[j, columns] = best_values[take]
            split[j, columns] = splits_j[best[take]]


@dataclass
class FuzzyRunState:
    """The matrix kernel's DP tables, retained for a streaming re-solve.

    Valid for reuse only when the next solve covers the same ``lo`` with
    the same ``min_len`` and a ``hi`` at or past :attr:`hi` on a
    trendline whose prefix of bins is bitwise unchanged (gated by
    :func:`~repro.engine.trendline.trendline_extends` at the query
    level) — then the retained columns are exactly what a cold solve
    would recompute and only the new end bins need work.
    """

    lo: int
    hi: int
    min_len: int
    opt: np.ndarray
    split: np.ndarray


def solve_fuzzy_run_extend(
    trendline: Trendline,
    units: List[ChainUnit],
    lo: int,
    hi: int,
    context: Optional[dict],
    state: Optional[FuzzyRunState],
) -> Tuple[Optional[List[Tuple[int, int]]], Optional[FuzzyRunState]]:
    """Matrix-kernel solve that can seed from (and emit) retained tables.

    Returns ``(placements, new_state)``.  When ``state`` matches this
    run (same ``lo``, same ``min_len``, ``state.hi <= hi``), its tables
    seed the new ones and the wavefront runs only over end bins
    ``> state.hi``; otherwise the fill starts cold.  Either way the
    resulting tables are bitwise what :func:`_solve_fuzzy_run_matrix`
    would produce, because per-cell values are tiling-independent.
    Trivial runs (``m <= 1``, infeasible width) carry no tables and
    return ``new_state=None``.
    """
    handled, result, min_len = _fuzzy_run_plan(lo, hi, units)
    if handled:
        return result, None
    m = len(units)
    length = hi - lo

    opt = np.full((m, length + 1), _NEG_INF)
    split = np.zeros((m, length + 1), dtype=int)
    from_end = lo
    if (
        state is not None
        and state.lo == lo
        and state.min_len == min_len
        and state.hi <= hi
        and state.opt.shape == (m, state.hi - lo + 1)
    ):
        width = state.hi - lo + 1
        opt[:, :width] = state.opt
        split[:, :width] = state.split
        from_end = state.hi + 1
    _matrix_fill(trendline, units, lo, hi, min_len, context, opt, split, from_end)

    new_state = FuzzyRunState(lo=lo, hi=hi, min_len=min_len, opt=opt, split=split)
    if not np.isfinite(opt[m - 1, length]):
        return None, new_state
    return _backtrack(split, lo, hi, m), new_state


def _solve_fuzzy_run(
    trendline: Trendline,
    units: List[ChainUnit],
    lo: int,
    hi: int,
    context: Optional[dict],
) -> Optional[List[Tuple[int, int]]]:
    """Default fuzzy-run solver: the context's kernel, else the module
    default.  Kept under the historical name (solve_chain's default);
    reading the kernel from the context is what makes nested sub-queries
    and AND exact-covers honor the engine's kernel choice."""
    kernel = context.get(KERNEL_KEY) if isinstance(context, dict) else None
    return fuzzy_run_solver(kernel)(trendline, units, lo, hi, context)


# ---------------------------------------------------------------------------
# Final scoring pass (handles POSITION and reports per-unit detail)
# ---------------------------------------------------------------------------


def _finalize(
    trendline: Trendline,
    chain: Chain,
    placements: List[Optional[Tuple[int, int]]],
    context: Optional[dict],
    feasible: bool,
) -> ChainSolution:
    """One candidate's final pass; each placement's slope is fitted once
    and serves the POSITION context, the unit's score and the report."""
    fitted = [
        None
        if bounds is None or bounds[1] - bounds[0] < MIN_SEGMENT_BINS
        else trendline.prefix.slope(*bounds)
        for bounds in placements
    ]
    slopes = dict(context) if context else {}
    for cu, slope in zip(chain.units, fitted):
        if slope is not None and cu.unit.seg_index >= 0:
            slopes[cu.unit.seg_index] = slope

    placed: List[PlacedUnit] = []
    total = 0.0
    for cu, bounds, slope in zip(chain.units, placements, fitted):
        start, end = (0, 0) if bounds is None else bounds
        if slope is None:
            score, slope = INFEASIBLE, 0.0
        else:
            score = cu.unit.score_with_slope(trendline, start, end, slope, slopes)
        total += cu.weight * score
        placed.append(
            PlacedUnit(
                seg_index=cu.unit.seg_index,
                start=start,
                end=end,
                score=score,
                weight=cu.weight,
                slope=slope,
            )
        )
    if not feasible:
        total = INFEASIBLE
    return ChainSolution(score=float(total), placements=placed)
