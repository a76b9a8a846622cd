"""The SegmentTree pattern-aware segmentation algorithm (paper §6.2).

A balanced binary tree is (logically) laid over the bins of the
visualization; leaves span 2–3 bins.  At every node the algorithm keeps,
for each contiguous *subchain* ``[i..j]`` of the query's units, the best
placement whose segments exactly cover the node's range — the paper's
per-node ShapeExpr tables of Figure 7.  A parent node combines its
children's tables two ways:

* **adjacent** — left ``[i..m]`` next to right ``[m+1..j]``;
* **merge** — left ``[i..m]`` with right ``[m..j]``: the shared unit
  ``m`` spans the node boundary, so its two partial segments are merged
  and the unit is *re-scored* over the union via the summarized
  statistics (the duplicate-resolution rule the paper walks through at
  node 5 of Figure 7, resolved by maximum score per Closure).

Under the paper's Closure assumption (a break point found in a smaller
region stays a break point in enclosing regions) the root's ``[0..k−1]``
entry is optimal; without it the result is an approximation whose
accuracy Figure 12 measures against the DP oracle.  Node work is
O(n·k³) — linear in the trendline length (Theorem 6.3; the paper quotes
the coarser O(n·k⁴) bound from the k²×k² cross product).

:class:`BatchedSegmentTree` builds the tables bottom-up, one level at a
time, and solves one fuzzy run for *C trendlines at once*, each over its
own ``[lo, hi)``.  Per level the node tables are dense arrays indexed ``[field, key,
lane]`` — one row per subchain key ``(i, j)``, one *lane* per node of
each candidate, candidate-major, so trees of different shapes share
the arrays and each candidate pairs up its nodes on its own schedule
(:class:`_Pairing`).  The fields: the weighted sum (−∞ = no entry),
the first unit's end and the last unit's start with their two scores,
the ``k−1`` interior break points (carried forward, so the root row
*is* the placement) and the entry's first-offer rank.  Every way to
form a parent key from a left and a right child key is one row of a
key-major *option* block filled by row gathers (:class:`_CombinePlan`);
all merged units of a level are re-scored by one slope gather over
the candidates' concatenated ``(5, Σ(n+1))`` prefix block and one
shared ``tan⁻¹`` (units that are not plain slope patterns — sketches,
quantifiers, nested queries, lines, y-constrained slopes — fall back
to one ``score_pairs`` call per candidate per level); and each key
keeps its maximum option by ``reduceat``, ties resolved to the option
the dict tree would have been *offered first* — except at level one
(half of all lanes), written in closed form: above two leaves every
key has one option at most.  A tree takes candidates while its marks
table fits :data:`BATCH_CELLS`, never fewer than :data:`BATCH_BLOCK`,
and closes early on long series (:data:`BATCH_LANES`), so peak memory
is flat in the collection size.

The dict-of-tuples reference, one trendline at a time, is
``IncrementalSegmentTree`` in ``benchmarks/paper/pruning.py``: the data
structure of the paper's two-stage pruning driver (§6.3), which advances
all candidates in rounds and reads the entries' placements between
levels.  It is the batched kernel's parity oracle
(``tests/test_segment_tree_batched.py``) and "the dict tree" of the
comments below: both score leaves and merges through the same
``score_pairs`` arithmetic, so weighted sums and placements agree bit
for bit.

Tie rule (both trees): an entry is replaced only by a *strictly* greater
weighted sum, so among equal options the first offered wins.  Offers
arrive in the left table's insertion order, adjacent before merge, then
in the right table's insertion order — which is itself a first-offer
order, hence the rank carried per entry.  At the root, options whose
first and last placements both meet the width floor beat any that do
not.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.engine import scoring
from repro.engine.chains import ChainUnit
from repro.engine.statistics import PrefixStats
from repro.engine.trendline import Trendline
from repro.engine.units import (
    MIN_SEGMENT_BINS,
    default_leaf_size,
    plain_slope,
    run_min_length,
)

#: The fewest candidates a :class:`BatchedSegmentTree` is cut at (below
#: it only :data:`BATCH_LANES` closes a tree), and the block a shard
#: refreshes its push-down floor after.  The kernel is
#: numpy-dispatch-bound on small trees: one costs 0.59 ms at one
#: candidate and 0.98 ms at 32 (2 units, 64 bins, best of 200).
BATCH_BLOCK = 32

#: Marks-table cells, ``(m + 2) · m(m + 1)/2`` per leaf lane of an
#: ``m``-unit chain, past which a tree of :data:`BATCH_BLOCK` candidates
#: or more takes no further candidate: the 5-unit, 32-candidate tree.
#: ``solve_many`` over 120 random walks of 100 bins (20 leaves each,
#: best of 10) then builds one tree at 2 units, two at 3, three at 4 and
#: four at 5, in 2.1 / 4.2 / 6.6 / 8.2 ms at a 1.5 / 2.3 / 2.2 / 2.3 MB
#: tracemalloc peak, against four 32-candidate trees each at 4.4 / 5.2 /
#: 6.5 / 8.3 ms and 0.8 / 1.1 / 1.5 / 2.3 MB.  Uncapped, 4 and 5 units
#: run in 4.2 and 5.7 ms but peak at 4.3 and 6.8 MB.
BATCH_CELLS = 63_000

#: Leaf nodes (lanes) per :class:`BatchedSegmentTree`.  The width floor
#: is capped (:data:`repro.engine.units.MIN_SEGMENT_CAP`), so leaves grow
#: with the series length — 32 candidates exceed this from ~640 bins —
#: and a block closes early rather than let its arrays outgrow the cache:
#: 64 series of 3 600 bins solve in 178 ms at a 12 MB peak with the cap
#: and 208 ms at 76 MB without (14 400 bins: 0.69 s / 10 MB vs 1.0 s /
#: 305 MB).
BATCH_LANES = 4096

_NEG_INF = -np.inf
_NEVER = np.iinfo(np.intp).max


def leaf_ranges(lo: int, hi: int, size: int = MIN_SEGMENT_BINS) -> List[Tuple[int, int]]:
    """Chop ``[lo, hi)`` into ``size``-bin leaves; the last absorbs a remainder.

    The leaf size doubles as the minimum unit width: every placement the
    tree produces is a union of leaves, so sizing leaves at the
    perceptual minimum (:func:`repro.engine.units.run_min_length`)
    enforces it structurally.
    """
    ranges: List[Tuple[int, int]] = []
    position = lo
    while hi - position >= 2 * size:
        ranges.append((position, position + size))
        position += size
    ranges.append((position, hi))
    return ranges


class _CombinePlan:
    """Static index tables of the level combine for a ``k``-unit chain.

    *Keys* are the subchains ``(i, j)``, ``i <= j``, in row-major order;
    a node table is one row per key.  *Options* are the ways a parent
    key can be formed from a left and a right child key — adjacent
    ``(i, m) ⊗ (m+1, j)`` or merge ``(i, m) ⊕ (m, j)`` — laid out
    key-major so per-key reductions are ``reduceat`` segments.  Merge
    options are additionally listed unit-major (``merge``), so all
    re-scores of one unit are one contiguous row block.
    """

    def __init__(self, k: int):
        keys = [(i, j) for i in range(k) for j in range(i, k)]
        key_id = {key: q for q, key in enumerate(keys)}
        options = []  # (key, left key, right key, unit, is_merge)
        key_start = []
        for q, (i, j) in enumerate(keys):
            key_start.append(len(options))
            for m in range(i, j):
                options.append((q, key_id[(i, m)], key_id[(m + 1, j)], m, False))
            for m in range(i, j + 1):
                options.append((q, key_id[(i, m)], key_id[(m, j)], m, True))
        self.keys = len(keys)
        self.options = len(options)
        self.first_unit = np.array([i for i, _ in keys])[:, None]
        self.last_unit = np.array([j for _, j in keys])[:, None]
        self.single = self.first_unit == self.last_unit
        self.key_start = np.array(key_start)
        (
            self.option_key,
            self.option_left,
            self.option_right,
            self.option_unit,
            is_merge,
        ) = np.array(options).T
        self.option_merge = is_merge.astype(bool)
        self.adjacent = np.flatnonzero(~self.option_merge)
        merge = np.flatnonzero(self.option_merge)
        self.merge = merge[np.argsort(self.option_unit[merge], kind="stable")]
        #: Per option, its row in the unit-major merge block (0 for adjacent).
        self.merge_row = np.zeros(len(options), dtype=np.intp)
        self.merge_row[self.merge] = np.arange(len(self.merge))
        self.merge_left = self.option_left[self.merge]
        self.merge_right = self.option_right[self.merge]
        merge_units = self.option_unit[self.merge]
        self.unit_rows = [
            slice(*np.searchsorted(merge_units, [m, m + 1])) for m in range(k)
        ]
        self.merge_first = self.first_unit[self.option_key[self.merge]]
        self.merge_last = self.last_unit[self.option_key[self.merge]]
        self.merge_unit = merge_units[:, None]
        self.merge_interior = (self.merge_first < self.merge_unit) & (
            self.merge_unit < self.merge_last
        )
        # Level one: keys (m, m) and (m, m+1) in unit order, and the ranks
        # the dict tree inserts them in: (0,1), (0,0), (1,2), (1,1), …, (k−1,k−1).
        self.singles = np.array([key_id[(m, m)] for m in range(k)], dtype=np.intp)
        self.pairs = np.array([key_id[(m, m + 1)] for m in range(k - 1)], dtype=np.intp)
        self.first_ranks = np.zeros(len(keys), dtype=np.intp)
        self.first_ranks[[key_id[(i, j)] for i in range(k) for j in (i + 1, i) if j < k]] = (
            np.arange(2 * k - 1)
        )


@lru_cache(maxsize=32)
def _combine_plan(k: int) -> _CombinePlan:
    """The (read-only) plan for ``k`` units; a pure function of ``k``."""
    return _CombinePlan(k)


class _Pairing(NamedTuple):
    """One level's lane bookkeeping for candidates with ``counts`` nodes
    left each (lanes are candidate-major): which lanes pair up, and
    where the parents and any unpaired last nodes land one level up."""

    counts: np.ndarray  # nodes per candidate one level up
    owner: np.ndarray  # candidate of each pair
    left: np.ndarray  # lane of each pair's left child (the right is next)
    roots: np.ndarray  # pairs whose parent is its candidate's root
    total: int  # lanes one level up
    paired: np.ndarray  # lane one level up of each pair's parent
    kept: np.ndarray  # lane one level up of each carried node ...
    source: np.ndarray  # ... and the lane it is carried from


@lru_cache(maxsize=64)
def _pairing(counts: Tuple[int, ...]) -> _Pairing:
    """A pure function of the node counts, so same-shaped blocks — the
    common case — pay for the index arithmetic once."""
    nodes = np.array(counts)
    pairs, carried = nodes // 2, nodes % 2
    first = np.cumsum(nodes) - nodes
    owner = np.repeat(np.arange(len(nodes)), pairs)
    within = np.arange(len(owner)) - np.repeat(np.cumsum(pairs) - pairs, pairs)
    above = pairs + carried
    first_above = np.cumsum(above) - above
    keeps = np.flatnonzero(carried)
    return _Pairing(
        counts=above,
        owner=owner,
        left=first[owner] + 2 * within,
        roots=np.flatnonzero(nodes[owner] == 2),
        total=int(above.sum()),
        paired=first_above[owner] + within,
        kept=first_above[keeps] + pairs[keeps],
        source=first[keeps] + nodes[keeps] - 1,
    )


class BatchedSegmentTree:
    """The SegmentTree tables of C trendlines, as dense arrays.

    Candidate ``c`` is solved over its own ``bounds[c] = (lo, hi)``, so
    trees may differ in shape: the trailing axis of every array is a
    *lane* — one node of one candidate, candidate-major — and a level
    pairs up each candidate's lanes on its own schedule (``counts`` holds
    the nodes each candidate has left).  State after each :meth:`step`
    is two blocks indexed ``[field, key, lane]`` (keys as in
    :class:`_CombinePlan`; small axes first, so array operations run
    their inner loops over the lanes):

    * ``values`` — ``[0]`` the best weighted sum of the key's subchain
      (−∞ = no entry), ``[1]`` its first unit's score, ``[2]`` its last
      unit's score;
    * ``marks`` — ``[0]`` the first unit's end, ``[1]`` the last unit's
      start (for ``i == j`` the node's own bounds), ``[2 + u]`` the
      boundary between units ``u`` and ``u+1`` for ``i <= u < j``, and
      ``[-1]`` the entry's position in the dict tree's insertion order.

    Slots that hold no entry carry in-range garbage, never read as
    results: every value that flows out is gated by the weighted sum.
    """

    def __init__(
        self,
        trendlines: Sequence[Trendline],
        units: List[ChainUnit],
        bounds: Sequence[Tuple[int, int]],
        contexts: Sequence[Optional[dict]],
        prefix: Optional[Tuple[PrefixStats, np.ndarray]] = None,
    ):
        self.trendlines = trendlines
        self.units = units
        self.contexts = contexts
        k = self.k = len(units)
        plan = self.plan = _combine_plan(k)
        #: Unit weights, per unit and aligned to table rows: the weight of
        #: each key's first / last unit and of each merge option's unit.
        self.weights = np.array([cu.weight for cu in units], dtype=float)[:, None]
        self.first_weights = self.weights[plan.first_unit[:, 0]]
        self.last_weights = self.weights[plan.last_unit[:, 0]]
        self.merge_weights = self.weights[plan.merge_unit[:, 0]]

        # Leaves: same bounds, same leaves — computed once per distinct run.
        shapes: Dict[Tuple[int, int], tuple] = {}
        for run in bounds:
            if run not in shapes:
                min_len = run_min_length(*run, max(1, k))
                ranges = np.array(leaf_ranges(*run, default_leaf_size(min_len)))
                shapes[run] = (min_len, ranges[:, 0], ranges[:, 1])
        #: Per candidate: the width floor and the nodes it has left.
        self.min_lens = np.array([shapes[run][0] for run in bounds])
        self.counts = np.array([len(shapes[run][1]) for run in bounds])
        self.lows = np.concatenate([shapes[run][1] for run in bounds])
        self.highs = np.concatenate([shapes[run][2] for run in bounds])

        #: Units scored across candidates in one gather: plain slope
        #: patterns.  Everything else is scored per candidate.
        self.batched = [m for m, cu in enumerate(units) if plain_slope(cu.unit)]
        if self.batched:
            # All candidates' rows end to end (the caller's, which its
            # final pass gathers from too): candidate c's bin p is column
            # offsets[c] + p, and the arithmetic is PrefixStats._slopes.
            self.prefix, self.offsets = prefix or PrefixStats.concatenate(
                [t.prefix for t in trendlines]
            )
        self._leaf_tables()
        self.depth = 0

    @property
    def done(self) -> bool:
        return len(self.lows) == len(self.counts)  # one node per candidate

    def run(self) -> List[Optional[List[Tuple[int, int]]]]:
        """Build to the roots; per candidate the full-chain placements or None."""
        while not self.done:
            self.step()
        k = self.k
        feasible = (self.values[0, k - 1] > _NEG_INF).tolist()  # key (0, k−1)
        breaks = self.marks[2 : k + 1, k - 1].T.tolist()
        results: List[Optional[List[Tuple[int, int]]]] = []
        for found, inner, lo, hi in zip(
            feasible, breaks, self.lows.tolist(), self.highs.tolist()
        ):
            bounds = [lo] + inner + [hi]
            results.append(list(zip(bounds[:-1], bounds[1:])) if found else None)
        return results

    # -- unit scoring ------------------------------------------------------
    def _slope_scores(self, m: int, atans: np.ndarray) -> np.ndarray:
        """Unit ``m``'s Table 5 score from shared ``tan⁻¹(slope)`` values —
        ``SlopeUnit.score_pairs`` minus its feasibility masks, which
        cannot fire here (every range is a union of leaves, and batched
        units carry no y constraint)."""
        unit = self.units[m].unit
        values = scoring.pattern_score_from_atan(unit.kind, atans, unit.theta)
        return -values if unit.negated else values

    def _scores(self, starts, ends, owner, rows_of=None, offered=None):
        """Unit scores over ``[starts, ends)``, one lane per column.

        ``rows_of(m)`` names the rows unit ``m`` is scored on and
        ``owner`` each lane's candidate (lanes are candidate-major);
        without it every unit is scored over the same range per lane (row
        ``m`` is unit ``m``), one slope and ``tan⁻¹`` per lane for all.
        Plain slope units take one gather across all candidates;
        expensive units (nested solves, sketches, quantifiers) go through
        ``score_pairs`` candidate by candidate, and only where
        ``offered`` — where the dict tree would score them too.
        """
        shared = rows_of is None
        shape = (self.k, len(owner)) if shared else np.broadcast(starts, ends).shape
        scores = np.zeros(shape)
        if self.batched:
            shift = self.offsets[owner]
            atans = np.arctan(self.prefix._slopes(starts + shift, ends + shift))
            for m in self.batched:
                rows = m if shared else rows_of(m)
                scores[rows] = self._slope_scores(m, atans if shared else atans[rows])
        if len(self.batched) < self.k:
            starts, ends = np.broadcast_to(starts, shape), np.broadcast_to(ends, shape)
            edges = np.searchsorted(owner, np.arange(len(self.trendlines) + 1))
            for m, cu in enumerate(self.units):
                if m in self.batched:
                    continue
                rows = m if shared else rows_of(m)
                for c, (trendline, context) in enumerate(zip(self.trendlines, self.contexts)):
                    lanes = slice(edges[c], edges[c + 1])
                    a, b = starts[rows, lanes], ends[rows, lanes]
                    if offered is None:
                        scores[rows, lanes] = cu.unit.score_pairs(
                            trendline, a.ravel(), b.ravel(), context
                        ).reshape(a.shape)
                        continue
                    chosen = offered[rows, lanes]
                    if chosen.any():
                        block = np.zeros(chosen.shape)
                        block[chosen] = cu.unit.score_pairs(
                            trendline, a[chosen], b[chosen], context
                        )
                        scores[rows, lanes] = block
        return scores

    def _leaf_tables(self) -> None:
        k, plan = self.k, self.plan
        owner = np.repeat(np.arange(len(self.counts)), self.counts)
        leaf_scores = self._scores(self.lows, self.highs, owner)
        singles = plan.singles
        self.values = np.zeros((3, plan.keys, len(owner)))
        self.values[0] = _NEG_INF
        self.values[0, singles] = self.weights * leaf_scores
        self.values[1:, singles] = leaf_scores
        self.marks = np.zeros((k + 2, plan.keys, len(owner)), dtype=np.intp)
        self.marks[0] = self.highs
        self.marks[1] = self.lows
        self.marks[-1, singles] = np.arange(k)[:, None]

    # -- level combine -----------------------------------------------------
    def step(self) -> None:
        """Combine one level: each candidate's adjacent node pairs become
        parent nodes; an unpaired last node is carried up unchanged."""
        if self.done:
            return
        pairing = _pairing(tuple(self.counts.tolist()))
        left, right = pairing.left, pairing.left + 1
        low, middle, high = self.lows[left], self.highs[left], self.highs[right]
        combine = self._first_level if self.depth == 0 else self._combine
        values, marks = combine(pairing, low, middle, high)

        if len(pairing.kept):  # unpaired last nodes are carried up unchanged

            def carry(parents, level):
                above = np.empty(parents.shape[:-1] + (pairing.total,), dtype=parents.dtype)
                above[..., pairing.paired] = parents
                above[..., pairing.kept] = level[..., pairing.source]
                return above

            values, marks = carry(values, self.values), carry(marks, self.marks)
            low, high = carry(low, self.lows), carry(high, self.highs)
        self.values, self.marks, self.lows, self.highs = values, marks, low, high
        self.counts = pairing.counts
        self.depth += 1

    def _first_level(self, pairing, low, middle, high):
        """Level one in closed form.  Over two leaves every key has one
        option at most — ``(m, m)`` merges unit ``m`` over the pair,
        ``(m, m+1)`` sets the left leaf's unit ``m`` beside the right
        leaf's ``m+1`` — so there is no maximum, tie-break or root rule,
        and the ranks are static.  Merge sums keep :meth:`_options`'
        operand order (its bits); keys without an entry hold zeros, so
        their −∞ stays −∞ higher up."""
        plan, weights = self.plan, self.weights
        leaves = self.values[:, plan.singles]  # [field, unit, lane]
        left = np.take(leaves, pairing.left, axis=2)
        right = np.take(leaves, pairing.left + 1, axis=2)

        merging = (left[0] - weights * left[2]) + right[0]
        merged = self._scores(low, high, pairing.owner, offered=merging > _NEG_INF)
        merging -= weights * right[1]
        merging += weights * merged

        values = np.zeros((3, plan.keys, len(low)))
        values[0] = _NEG_INF
        values[0, plan.singles] = merging
        values[1:, plan.singles] = merged
        values[0, plan.pairs] = left[0, :-1] + right[0, 1:]
        values[1, plan.pairs] = left[1, :-1]
        values[2, plan.pairs] = right[2, 1:]
        marks = np.zeros((self.k + 2,) + values.shape[1:], dtype=np.intp)
        marks[0, plan.singles] = high
        marks[1, plan.singles] = low
        marks[:2, plan.pairs] = middle
        marks[2 + np.arange(self.k - 1), plan.pairs] = middle
        marks[-1] = plan.first_ranks[:, None]
        return values, marks

    def _combine(self, pairing, low, middle, high):
        """A level above the first: every option of every key."""
        plan = self.plan
        owner, left, right, roots = pairing.owner, pairing.left, pairing.left + 1, pairing.roots
        left_values = np.take(self.values, left, axis=2)
        left_marks = np.take(self.marks, left, axis=2)
        right_values = np.take(self.values, right, axis=2)
        right_marks = np.take(self.marks, right, axis=2)
        tables = (left_values, left_marks, right_values, right_marks)
        min_len = self.min_lens[owner]

        options, merged, merge_bounds = self._options(*tables, middle, min_len, owner)
        # Offer order of the dict tree: options reach a key in the left
        # table's insertion order, adjacent before merge.
        order = (left_marks[-1] * 2)[plan.option_left] + plan.option_merge[:, None]
        rank = self._insertion_rank(options, order, right_marks[-1])
        if len(roots):
            options[:, roots] = self._prefer_floor_compliant(
                options[:, roots],
                left_marks[0][:, roots],
                right_marks[1][:, roots],
                merge_bounds[0][:, roots],
                merge_bounds[1][:, roots],
                low[roots],
                high[roots],
                min_len[roots],
            )
        # Winner per key: the maximum; among equals, the first offered.
        best = np.maximum.reduceat(options, plan.key_start)
        winner = np.minimum.reduceat(
            np.where(
                options == best[plan.option_key],
                order * plan.options + np.arange(plan.options)[:, None],
                _NEVER,
            ),
            plan.key_start,
        ) % plan.options
        del options, order
        return self._entries(winner, best, rank, *tables, merged, middle)

    def _options(
        self, left_values, left_marks, right_values, right_marks, middle, min_len, owner
    ):
        """Weighted sum of every option (−∞ = never offered), the merged
        units' scores (unit-major) and the ranges they were scored over."""
        plan = self.plan
        left_wsum, right_wsum = left_values[0], right_values[0]
        starts = left_marks[1]  # start of the left part's last unit
        ends = right_marks[0]  # end of the right part's first unit

        # Merge (i, m) ⊕ (m, j): unit m spans [start of its left part, end
        # of its right part) and is re-scored there; if that leaves it
        # interior it must meet the width floor.  In the dict tree's
        # operand order: (((l − w·l_last) + r) − w·r_first) + w·merged.
        merge_starts, merge_ends = starts[plan.merge_left], ends[plan.merge_right]
        merging = (left_wsum - self.last_weights * left_values[2])[plan.merge_left]
        merging += right_wsum[plan.merge_right]
        merging[plan.merge_interior & (merge_ends - merge_starts < min_len)] = _NEG_INF
        merged = self._scores(
            merge_starts, merge_ends, owner, plan.unit_rows.__getitem__, merging > _NEG_INF
        )
        merging -= (self.first_weights * right_values[1])[plan.merge_right]
        merging += self.merge_weights * merged

        # Adjacent (i, m) ⊗ (m+1, j): a unit that becomes interior here
        # (left's last unless i == m, right's first unless m+1 == j) must
        # meet the width floor.
        beside_left = np.where(plan.single | (middle - starts >= min_len), left_wsum, _NEG_INF)
        beside_right = np.where(plan.single | (ends - middle >= min_len), right_wsum, _NEG_INF)
        options = np.empty((plan.options, len(owner)))
        options[plan.adjacent] = (
            beside_left[plan.option_left[plan.adjacent]]
            + beside_right[plan.option_right[plan.adjacent]]
        )
        options[plan.merge] = merging
        return options, merged, (merge_starts, merge_ends)

    def _insertion_rank(self, options, order, right_rank):
        """Each parent key's position in the dict tree's insertion order:
        keys enter the table at their first offer, and offers sharing a
        left entry arrive in the right table's order.  Re-densified per
        level so the codes stay small at any depth."""
        plan = self.plan
        first_offer = np.minimum.reduceat(
            np.where(
                options > _NEG_INF, order * plan.keys + right_rank[plan.option_right], _NEVER
            ),
            plan.key_start,
        )
        return first_offer.argsort(axis=0, kind="stable").argsort(axis=0, kind="stable")

    def _entries(
        self, winner, best, rank, left_values, left_marks, right_values, right_marks,
        merged, middle,
    ):
        """The parent tables, read off each key's winning option."""
        k, plan = self.k, self.plan
        lanes = winner.shape[1]
        lane = np.arange(lanes)

        def take(table, keys):
            """``table[..., keys[q, lane], lane]`` for every (q, lane)."""
            flat = table.reshape(table.shape[:-2] + (-1,))
            return np.take(flat, keys * lanes + lane, axis=-1)

        left_key, right_key = plan.option_left[winner], plan.option_right[winner]
        from_left, from_right = take(left_marks, left_key), take(right_marks, right_key)
        merged_score = take(merged, plan.merge_row[winner])
        unit = plan.option_unit[winner]
        is_merge = plan.option_merge[winner]
        # A merged unit is the key's first unit when i == m, its last when m == j.
        merged_first = is_merge & (unit == plan.first_unit)
        merged_last = is_merge & (unit == plan.last_unit)

        values = np.empty((3,) + winner.shape)
        values[0] = best
        values[1] = np.where(merged_first, merged_score, take(left_values[1], left_key))
        values[2] = np.where(merged_last, merged_score, take(right_values[2], right_key))
        marks = np.empty((k + 2,) + winner.shape, dtype=np.intp)
        marks[0] = np.where(merged_first, from_right[0], from_left[0])
        marks[1] = np.where(merged_last, from_left[1], from_right[1])
        boundary = np.arange(k - 1)[:, None, None]
        marks[2 : k + 1] = np.where(
            boundary < unit,
            from_left[2 : k + 1],
            np.where((boundary == unit) & ~is_merge, middle, from_right[2 : k + 1]),
        )
        marks[-1] = rank
        return values, marks

    def _prefer_floor_compliant(
        self, options, left_first_end, right_last_start, merge_starts, merge_ends,
        low, high, min_len,
    ):
        """Root rule: where any option's first and last placements both
        meet the width floor, only such options compete."""
        plan = self.plan
        # Adjacent options keep left's first unit and right's last unit;
        # a merged unit is first when i == m and last when m == j.
        first_end = left_first_end[plan.option_left]
        last_start = right_last_start[plan.option_right]
        first_end[plan.merge] = np.where(
            plan.merge_unit == plan.merge_first, merge_ends, first_end[plan.merge]
        )
        last_start[plan.merge] = np.where(
            plan.merge_unit == plan.merge_last, merge_starts, last_start[plan.merge]
        )
        compliant = np.where(
            (first_end - low >= min_len) & (high - last_start >= min_len), options, _NEG_INF
        )
        any_compliant = np.maximum.reduceat(compliant, plan.key_start) > _NEG_INF
        return np.where(any_compliant[plan.option_key], compliant, options)


def segment_tree_batch_solver(
    trendlines: Sequence[Trendline],
    units: List[ChainUnit],
    bounds: Sequence[Tuple[int, int]],
    contexts: Sequence[Optional[dict]],
    prefix: Optional[Tuple[PrefixStats, np.ndarray]] = None,
) -> List[Optional[List[Tuple[int, int]]]]:
    """Solve one fuzzy run of ``units`` for many trendlines at once.

    The batched twin of a :func:`repro.engine.dynamic.solve_chain` run
    solver: per trendline the placements of ``units`` over its
    ``bounds[c] = (lo, hi)``, or None where they cannot fit.  ``prefix``
    is the trendlines' rows end to end, if the caller already built them
    (:meth:`~repro.engine.statistics.PrefixStats.concatenate`).  Lanes
    are independent, so how the candidates are cut into trees
    (:data:`BATCH_CELLS`, :data:`BATCH_LANES`) changes no bit.
    """
    m = len(units)
    cells = (m + 2) * m * (m + 1) // 2  # marks cells per lane
    results: List[Optional[List[Tuple[int, int]]]] = [None] * len(trendlines)
    blocks: List[List[int]] = [[]]
    lanes = 0
    for c, (lo, hi) in enumerate(bounds):
        if m == 0:
            results[c] = []
        elif hi - lo < MIN_SEGMENT_BINS * m:
            continue
        elif m == 1:
            results[c] = [(lo, hi)]
        else:
            leaves = (hi - lo) // default_leaf_size(run_min_length(lo, hi, m))
            if blocks[-1] and (
                lanes + leaves > BATCH_LANES
                or (len(blocks[-1]) >= BATCH_BLOCK and (lanes + leaves) * cells > BATCH_CELLS)
            ):
                blocks.append([])
                lanes = 0
            blocks[-1].append(c)
            lanes += leaves
    for block in blocks:
        if not block:
            continue
        tree = BatchedSegmentTree(
            [trendlines[c] for c in block],
            units,
            [bounds[c] for c in block],
            [contexts[c] for c in block],
            None if prefix is None else (prefix[0], prefix[1][block]),
        )
        for c, placements in zip(block, tree.run()):
            results[c] = placements
    return results


def segment_tree_run_solver(
    trendline: Trendline,
    units: List[ChainUnit],
    lo: int,
    hi: int,
    context: Optional[dict],
) -> Optional[List[Tuple[int, int]]]:
    """Drop-in run solver for :func:`repro.engine.dynamic.solve_chain`:
    the one-candidate case of :func:`segment_tree_batch_solver`."""
    return segment_tree_batch_solver([trendline], units, [(lo, hi)], [context])[0]
