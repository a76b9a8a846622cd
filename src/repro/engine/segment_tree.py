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
own ``[lo, hi)``.  A level's node tables are one float64 block
``[row, lane]`` — a row per (field, subchain key ``(i, j)``), one *lane*
per node of each candidate, candidate-major, so trees of different
shapes share the block and each candidate pairs up its nodes on its own
schedule (:class:`_Pairing`).  The fields: the weighted sum (−∞ = no
entry), the entry's first-offer rank, the first and last units' scores,
the first unit's end and the last unit's start, and the ``k−1``
interior break points (carried forward, so the root row *is* the
placement).  Marks are integers far below 2⁵³, so they are exact in
float64, and positions are bins of the candidates' rows end to end, so a
range's slope is one gather from their concatenated ``(5, Σ(n+1))``
prefix block.

A level is a fixed, short sequence of numpy calls whatever ``k`` is,
driven by static row tables (:class:`_CombinePlan`, one per ``k``, unit
kinds and child span): one gather puts both children of every parent
side by side; one gather pulls every operand of every option — each way
to form a parent key from a left and a right child key, key-major; all
merged units are re-scored by one slope gather and one shared ``tan⁻¹``
per level, with one transform per pattern kind (units that are not
plain slope patterns — sketches, quantifiers, nested queries, lines,
y-constrained slopes — fall back to one ``score_pairs`` call per
candidate per level); each key keeps its maximum option by ``reduceat``,
ties resolved to the option the dict tree would have been *offered
first*, and the ranks and winners come out of one more ``reduceat`` over
integer-valued codes; the parent's rows are then one gather, indexed by
the winning options.  Options are listed only over child keys the
children can hold — a node of ``s`` leaves holds keys of at most ``s``
units — so low levels, where the lanes are, read few of them.  Level
one (half of all lanes) is written in closed form: over two leaves
every key has one option at most, so every parent row is one static row
of the children (:class:`_FirstLevel`).  A tree takes candidates while
its marks table fits :data:`BATCH_CELLS`, never fewer than
:data:`BATCH_BLOCK`, and closes early on long series
(:data:`BATCH_LANES`), so peak memory is flat in the collection size.

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
from repro.engine.statistics import PrefixStats, fit_slopes
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
#: numpy-dispatch-bound on small trees: one costs 0.38 ms at one
#: candidate and 0.68 ms at 32 (2 units, 64 bins, best of 200 on a
#: shared 2-vCPU Xeon host).
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


#: A node's fields above the leaves: state row ``field · K + key`` for
#: the ``K = k(k+1)/2`` keys of :func:`_keys`.  ``BREAK + u`` is the
#: boundary between units ``u`` and ``u + 1``, held by keys ``(i, j)``
#: with ``i <= u < j``.  After the fields come three lane rows: the
#: node's low and high bins and its candidate's width floor.
WSUM, RANK, FIRST, LAST, END, START, BREAK = range(7)


@lru_cache(maxsize=64)
def _keys(k: int, span: int) -> Tuple[Tuple[int, int], ...]:
    """The subchains ``(i, j)`` of at most ``span`` units, narrowest
    first: all a node over ``span`` leaves or fewer can hold, and a
    prefix of the keys of every wider node."""
    return tuple((i, i + width) for width in range(span) for i in range(k - width))


def _scorer(unit) -> Optional[Tuple[Tuple[str, Optional[float]], bool]]:
    """A plain slope unit's shared transform ``(kind, θ)`` and whether it
    flips the sign — ``down`` folded onto ``up``, its exact negation, as
    :meth:`~repro.engine.units.SlopeUnit.tile_transform` folds it — or
    None for a unit scored per candidate."""
    if not plain_slope(unit):
        return None
    kind, flip = unit.kind, unit.negated
    if kind == "down":
        kind, flip = "up", not flip
    return (kind, unit.theta), flip


class _CombinePlan:
    """Static row tables of one level step of a ``k``-unit chain.

    Every node above the leaves has a row per key (:func:`_keys`), but
    children hold entries only for keys of at most ``span`` units, so the
    parents only for those of at most ``2 · span``.  *Options* are the
    ways a parent key is formed from a left and a right child key —
    adjacent ``(i, m) ⊗ (m+1, j)`` or merge ``(i, m) ⊕ (m, j)`` — laid
    out key-major, so per-key reductions are ``reduceat`` segments.
    ``groups`` labels each unit's slope transform (−1: scored per
    candidate); merge rows run label by label, unit by unit, so each
    transform and each per-candidate unit is one block.

    A level reads its children side by side: row ``2r`` of the children
    block is the left child's state row ``r``, row ``2r + 1`` the right
    child's, and the rows from ``2R`` hold the merged units' scores.
    Every operand of every option is a row of :attr:`gather`.  A parent's best sums and ranks are computed in
    place; each of its other rows is the row of :attr:`table` picked by
    its key's winning option (:attr:`carry` for an unpaired node).
    """

    def __init__(self, k: int, groups: Tuple[int, ...], span: int):
        self.span = span
        keys = _keys(k, k)
        child = {key: q for q, key in enumerate(_keys(k, span))}  # what a child can hold
        options = []  # (key, left key, right key, unit, is_merge)
        key_start = []
        for q, (i, j) in enumerate(_keys(k, min(2 * span, k))):
            key_start.append(len(options))
            for m in range(i, j):
                if (i, m) in child and (m + 1, j) in child:
                    options.append((q, child[(i, m)], child[(m + 1, j)], m, False))
            for m in range(i, j + 1):
                if (i, m) in child and (m, j) in child:
                    options.append((q, child[(i, m)], child[(m, j)], m, True))
        K, O = len(keys), len(options)
        self.keys, self.formed, self.options = K, len(key_start), O
        self.key_start = np.array(key_start)
        self.option_key = np.array([o[0] for o in options])

        def block_of(m):  # per-candidate units after every transform
            return groups[m] if groups[m] >= 0 else len(groups)

        adjacent = [o for o in options if not o[4]]
        merges = sorted((o for o in options if o[4]), key=lambda o: (block_of(o[3]), o[3]))
        A, M = self.adjacent, self.merges = len(adjacent), len(merges)
        self.merge_unit = np.array([o[3] for o in merges], dtype=np.intp)
        blocks = [block_of(o[3]) for o in merges]
        self.batched = sum(g < len(groups) for g in blocks)  # merge rows of plain slopes
        self.transform_rows = [
            slice(blocks.index(g), M - blocks[::-1].index(g)) for g in sorted(set(groups) - {-1})
        ]
        units = self.merge_unit.tolist()
        self.own_rows = [
            (m, slice(units.index(m), M - units[::-1].index(m)))
            for m in range(k)
            if groups[m] < 0 and m in units
        ]

        F = BREAK + k - 1
        R = self.rows = F * K + 3
        #: Rows the read-off gathers, fields FIRST onward.
        self.picked = (F - FIRST) * K

        def left(field, key):
            return 2 * (field * K + key)

        def right(field, key):
            return left(field, key) + 1

        low, middle, floor = 2 * F * K, 2 * F * K + 2, 2 * F * K + 4  # the left child's
        high = middle + 1  # the right child's
        merged = 2 * R
        self.extra = (M + 1) // 2
        self.merged_rows = slice(merged, merged + M)

        rows: List[int] = []

        def block(entries):
            rows.extend(entries)
            return slice(len(rows) - len(entries), len(rows))

        # Width floors: minuend − subtrahend over the parts [merged units,
        # adjacent left parts, adjacent right parts], each gating its
        # operand in ``sums``; ``bonus`` (+∞) exempts a part that does
        # not become interior.
        self.subtrahend = block(
            [left(START, o[1]) for o in merges]
            + [left(START, o[1]) for o in adjacent]
            + [middle] * A
        )
        self.minuend = block(
            [right(END, o[2]) for o in merges]
            + [middle] * A
            + [right(END, o[2]) for o in adjacent]
        )
        self.floor = slice(floor, floor + 1)  # a children-block row
        self.sums = block(
            [left(WSUM, o[1]) for o in merges]
            + [left(WSUM, o[1]) for o in adjacent]
            + [right(WSUM, o[2]) for o in adjacent]
        )
        self.right_sums = block([right(WSUM, o[2]) for o in merges])
        self.part_scores = block(
            [left(LAST, o[1]) for o in merges] + [right(FIRST, o[2]) for o in merges]
        )
        self.gather = np.array(rows, dtype=np.intp)
        #: Each option's [left rank, right rank].
        self.ranks = np.array(
            [left(RANK, o[1]) for o in options] + [right(RANK, o[2]) for o in options]
        )
        #: Each merged unit's [start, end).
        self.ranges = np.array(
            [left(START, o[1]) for o in merges] + [right(END, o[2]) for o in merges]
        )
        self.bonus = np.array(
            [0.0 if keys[o[0]][0] < o[3] < keys[o[0]][1] else np.inf for o in merges]
            + [np.inf if keys[o[0]][0] == o[3] else 0.0 for o in adjacent]
            + [np.inf if o[3] + 1 == keys[o[0]][1] else 0.0 for o in adjacent]
        )[:, None]
        position = {o: n for n, o in enumerate(merges + adjacent)}
        self.perm = np.array([position[o] for o in options], dtype=np.intp)

        # The dict tree's offer order: options reach a key in the left
        # table's insertion order, adjacent before merge; offers sharing
        # a left entry, in the right table's.  Codes [tie-break, first
        # offer] = left rank · scale + base (+ right rank); the option
        # is the tie-break code's low bits.
        is_merge = np.array([o[4] for o in options], dtype=float)
        bits = 1 << O.bit_length()  # > O, the option of a key no option forms
        self.option_bits = bits - 1
        self.code_scale = np.array([2.0 * bits, 2.0 * K])[:, None, None]
        self.code_base = np.stack([is_merge * bits + np.arange(O), is_merge * K])[:, :, None]

        # Read-off: parent row (field, key) is the children-block row
        # table[field, winning option of key]; option O stands for the
        # keys no option forms (finite garbage).
        table = np.full((F, O + 1), floor, dtype=np.intp)
        for n, (q, l, r, m, merge) in enumerate(options):
            i, j = keys[q]
            first, last = merge and m == i, merge and m == j
            table[FIRST, n] = merged + position[options[n]] if first else left(FIRST, l)
            table[LAST, n] = merged + position[options[n]] if last else right(LAST, r)
            table[END, n] = right(END, r) if first else left(END, l)
            table[START, n] = left(START, l) if last else right(START, r)
            for u in range(k - 1):
                if u < m:
                    table[BREAK + u, n] = left(BREAK + u, l)
                elif u == m and not merge:
                    table[BREAK + u, n] = middle
                else:
                    table[BREAK + u, n] = right(BREAK + u, r)
        self.table = table[FIRST:]  # WSUM and RANK are computed in place
        self.lane_sources = np.array([low, high, floor])[:, None]
        #: An unpaired node keeps its rows.
        self.carry = 2 * np.arange(F * K)
        #: Root rule operands: [first end; parent high] − [parent low; last start].
        self.root_gather = np.array(
            list(table[END, :O]) + [high] * O + [low] * O + list(table[START, :O]), dtype=np.intp
        )


@lru_cache(maxsize=128)
def _combine_plan(k: int, groups: Tuple[int, ...], span: int) -> _CombinePlan:
    """The (read-only) plan of one level; a pure function of its arguments.
    A plan is 1–30 KB and takes 0.3–1.3 ms to build (k = 2–7), so the
    cache holds a served mix of chains and child spans without churn."""
    return _CombinePlan(k, groups, span)


class _FirstLevel:
    """Static rows of level one, where both children are leaves.

    A leaf holds only the single-unit keys, as the rows ``[w·score of
    each unit, score of each unit, low, high, width floor]``.  Over two
    leaves every parent key has one option — ``(m, m)`` merges unit
    ``m`` over the pair, ``(m, m+1)`` sets the left leaf's unit ``m``
    beside the right leaf's ``m+1`` — so there is no maximum, tie-break,
    width floor or root rule, the ranks are static, and every parent row
    is one row of the children block for all lanes (:attr:`source`; a
    carried leaf's rows are :attr:`carry`).
    """

    def __init__(self, k: int):
        low, high, floor = 2 * k, 2 * k + 1, 2 * k + 2  # leaf rows
        keys = _keys(k, k)
        K, F, formed = len(keys), BREAK + k - 1, 2 * k - 1  # (m, m) and (m, m+1)
        units = np.arange(k)
        self.leaf_rows = 2 * k + 3
        #: [w·left, left score, w·right, right score] of each unit, then
        #: the pair's low and high bins.
        self.gather = np.concatenate(
            [2 * units, 2 * (k + units), 2 * units + 1, 2 * (k + units) + 1, [2 * low, 2 * high + 1]]
        )
        merging, merged, beside = 2 * self.leaf_rows + np.arange(3) * k
        ranks = merged + 2 * k - 1  # the static ranks, then a leaf's, then −∞
        neg = ranks + formed + k
        self.merging = slice(merging, merging + k)
        self.merged = slice(merged, merged + k)
        self.beside = slice(beside, beside + k - 1)
        self.constant_rows = slice(ranks, neg + 1)
        # The dict tree inserts (0,1), (0,0), (1,2), (1,1), …, (k−1,k−1).
        first_ranks = np.zeros(formed)
        first_ranks[[keys.index((i, j)) for i in range(k) for j in (i + 1, i) if j < k]] = (
            np.arange(formed)
        )
        self.constants = np.concatenate([first_ranks, units, [_NEG_INF]])[:, None]
        self.extra = (3 * k - 1 + formed + k + 1 + 1) // 2

        source = np.full((F, K), 2 * floor)  # finite garbage
        carry = np.full((F, K), 2 * floor)
        source[WSUM, :k] = merging + units
        source[FIRST, :k] = source[LAST, :k] = merged + units
        source[END, :k] = 2 * high + 1
        source[START, :k] = 2 * low
        source[WSUM, formed:] = neg
        source[RANK, :formed] = ranks + np.arange(formed)
        pairs = units[:-1]
        source[WSUM, k:formed] = beside + pairs
        source[FIRST, k:formed] = 2 * (k + pairs)
        source[LAST, k:formed] = 2 * (k + pairs + 1) + 1
        source[END, k:formed] = source[START, k:formed] = 2 * high
        source[BREAK + pairs, k + pairs] = 2 * high
        carry[WSUM] = neg
        carry[WSUM, :k] = 2 * units
        carry[FIRST, :k] = carry[LAST, :k] = 2 * (k + units)
        carry[END, :k] = 2 * high
        carry[START, :k] = 2 * low
        carry[RANK, :k] = ranks + formed + units
        lanes = [2 * low, 2 * high + 1, 2 * floor]
        self.source = np.concatenate([source.ravel(), lanes])
        self.carry = np.concatenate([carry.ravel(), [2 * low, 2 * high, 2 * floor]])[:, None]


@lru_cache(maxsize=16)
def _first_level_plan(k: int) -> _FirstLevel:
    """The (read-only) level-one plan for ``k`` units."""
    return _FirstLevel(k)


class _Pairing(NamedTuple):
    """One level's lane bookkeeping for candidates with ``counts`` nodes
    left each (lanes are candidate-major): each lane one level up is a
    parent of two adjacent nodes or an unpaired last node carried up."""

    counts: np.ndarray  # nodes per candidate one level up
    children: np.ndarray  # left children of the lanes one level up, then right
    lane: np.ndarray  # arange of the lanes one level up
    owner: np.ndarray  # candidate of each lane one level up
    kept: np.ndarray  # lanes one level up that carry a node (its own two children)
    roots: object  # None, True (every lane) or a mask: lanes whose parent is a root


@lru_cache(maxsize=64)
def _pairing(counts: Tuple[int, ...]) -> _Pairing:
    """A pure function of the node counts, so same-shaped blocks — the
    common case — pay for the index arithmetic once."""
    nodes = np.array(counts)
    above = nodes // 2 + nodes % 2
    first, first_above = np.cumsum(nodes) - nodes, np.cumsum(above) - above
    owner = np.repeat(np.arange(len(nodes)), above)
    within = np.arange(len(owner)) - first_above[owner]
    left = first[owner] + 2 * within  # a carried node's is itself
    kept = (nodes[owner] % 2 == 1) & (within == above[owner] - 1)
    roots = (nodes[owner] == 2) & ~kept
    return _Pairing(
        counts=above,
        children=np.concatenate([left, left + ~kept]),
        lane=np.arange(len(owner)),
        owner=owner,
        kept=np.flatnonzero(kept),
        roots=True if roots.all() else roots if roots.any() else None,
    )


class Entries(NamedTuple):
    """One level's node tables, in bins of each candidate's own series."""

    keys: Tuple[Tuple[int, int], ...]  # the subchains (i, j) of the rows below
    wsum: np.ndarray  # [key, lane] best weighted sum, −∞ = no entry
    rank: np.ndarray  # [key, lane] position in the dict tree's insertion order
    breaks: np.ndarray  # [u, key, lane] boundary between units u and u + 1
    lows: np.ndarray  # [lane] the node's range
    highs: np.ndarray


class BatchedSegmentTree:
    """The SegmentTree tables of C trendlines, as one dense block.

    Candidate ``c`` is solved over its own ``bounds[c] = (lo, hi)``, so
    trees may differ in shape: the trailing axis of the state is a
    *lane* — one node of one candidate, candidate-major — and a level
    pairs up each candidate's lanes on its own schedule (``counts`` holds
    the nodes each candidate has left).  The state after each
    :meth:`step` is one float64 block ``[row, lane]``: row
    ``field · K + key`` for the ``K`` keys of :func:`_keys` (entries only
    for keys of at most :attr:`span` units; a leaf holds just its ``k``
    single-unit keys, :class:`_FirstLevel`) and the fields :data:`WSUM`
    (−∞ = no entry), :data:`RANK` (the entry's position in the dict
    tree's insertion order), :data:`FIRST` / :data:`LAST` (the first /
    last unit's score), :data:`END` / :data:`START` (the first unit's
    end, the last unit's start) and :data:`BREAK` ``+ u``, then the lane
    rows.  Marks are
    integers far below 2⁵³, so they are exact in float64, and positions
    are bins of the candidates' rows end to end (:attr:`offsets`), so a
    range's slope is one gather.

    Slots that hold no entry carry finite garbage, never read as
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
        self.k = len(units)
        scorers = [_scorer(cu.unit) for cu in units]
        #: Plain slope units share one ``tan⁻¹`` per range and one
        #: transform per ``(kind, θ)``; the rest are scored per candidate.
        self.transforms = list(dict.fromkeys(s[0] for s in scorers if s is not None))
        self.groups = tuple(-1 if s is None else self.transforms.index(s[0]) for s in scorers)
        self.weights = np.array([cu.weight for cu in units], dtype=float)[:, None]
        self.flips = np.array([s is not None and s[1] for s in scorers], dtype=bool)[:, None]
        #: Per transform: its units and their signs (None: none flips).
        self.transform_units = []
        for label in range(len(self.transforms)):
            rows = [m for m, g in enumerate(self.groups) if g == label]
            flips = self.flips[rows]
            self.transform_units.append((rows, np.where(flips, -1.0, 1.0) if flips.any() else None))
        self._merge_columns: Dict[int, tuple] = {}

        # Leaves: same bounds, same leaves — computed once per distinct run.
        shapes: Dict[Tuple[int, int], tuple] = {}
        for run in bounds:
            if run not in shapes:
                min_len = run_min_length(*run, max(1, self.k))
                ranges = np.array(leaf_ranges(*run, default_leaf_size(min_len)))
                shapes[run] = (min_len, ranges[:, 0], ranges[:, 1])
        #: Per candidate: the width floor and the nodes it has left.
        self.min_lens = np.array([shapes[run][0] for run in bounds])
        self.counts = np.array([len(shapes[run][1]) for run in bounds])
        lows = np.concatenate([shapes[run][1] for run in bounds])
        highs = np.concatenate([shapes[run][2] for run in bounds])

        if self.transforms:
            # All candidates' rows end to end (the caller's, which its
            # final pass gathers from too): candidate c's bin p is column
            # offsets[c] + p, and the arithmetic is PrefixStats._slopes.
            stats, self.offsets = prefix or PrefixStats.concatenate(
                [t.prefix for t in trendlines]
            )
            self.stacked = (
                stats.stacked
                if stats.stacked is not None
                else np.stack([getattr(stats, row) for row in PrefixStats.STACKED_ROWS])
            )
        else:
            self.offsets = np.zeros(len(trendlines), dtype=np.intp)
        self._leaf_tables(lows, highs)

    @property
    def done(self) -> bool:
        return self.state.shape[1] == len(self.counts)  # one node per candidate

    def entries(self) -> Entries:
        """The current level's node tables (what the parity tests read)."""
        k, state = self.k, self.state
        keys = _keys(k, self.span if self.depth == 0 else k)
        K = len(keys)
        shift = self.offsets[np.repeat(np.arange(len(self.counts)), self.counts)]
        lanes = (state[-3:-1] - shift).astype(np.intp)
        if self.depth == 0:  # leaves: the single-unit keys in unit order
            wsum, rank = state[:k], np.broadcast_to(np.arange(k)[:, None], (k, state.shape[1]))
            breaks = np.zeros((k - 1, k, state.shape[1]), dtype=np.intp)
        else:
            wsum, rank = state[WSUM * K : (WSUM + 1) * K], state[RANK * K : (RANK + 1) * K]
            breaks = state[BREAK * K : (BREAK + k - 1) * K].reshape(k - 1, K, -1) - shift
        return Entries(keys, wsum, rank, breaks.astype(np.intp), lanes[0], lanes[1])

    def run(self) -> List[Optional[List[Tuple[int, int]]]]:
        """Build to the roots; per candidate the full-chain placements or None."""
        while not self.done:
            self.step()
        k, state = self.k, self.state
        if self.depth == 0:  # every candidate is one leaf: only one unit fits
            lows, highs = (state[-3:-1] - self.offsets).astype(np.intp).tolist()
            return [[(lo, hi)] if k == 1 else None for lo, hi in zip(lows, highs)]
        K = len(_keys(k, k))  # the root key (0, k−1) is the last
        feasible = (state[WSUM * K + K - 1] > _NEG_INF).tolist()
        rows = [-3] + list(range(BREAK * K + K - 1, (BREAK + k - 1) * K, K)) + [-2]
        bounds = (state[rows] - self.offsets).astype(np.intp).T.tolist()
        return [
            list(zip(ends[:-1], ends[1:])) if found else None
            for found, ends in zip(feasible, bounds)
        ]

    # -- unit scoring ------------------------------------------------------
    def _slope_atans(self, ranges: np.ndarray) -> np.ndarray:
        """``tan⁻¹`` of the slopes of ``[ranges[0], ranges[1])``: one
        gather from the rows end to end, bitwise ``PrefixStats._slopes``."""
        stats = self.stacked.take(ranges, axis=1)
        sums = stats[:, 1]
        sums -= stats[:, 0]
        slopes = fit_slopes(*sums)
        return np.arctan(slopes, out=slopes)

    def _unit_scores(self, ranges, owner, out, offered=None) -> None:
        """Every unit's score over the same ranges ``[ranges[0],
        ranges[1])`` (bins of the rows end to end), one lane per column,
        into ``out[unit]``.
        Plain slope units share one ``tan⁻¹`` gather and one transform per
        ``(kind, θ)`` — SlopeUnit.score_pairs minus its feasibility masks,
        which cannot fire here (every range is a union of leaves, and
        these units carry no y constraint); the rest go through
        ``score_pairs`` candidate by candidate, and only where ``offered``
        (zero elsewhere) — where the dict tree would score them too."""
        if self.transforms:
            atans = self._slope_atans(ranges.astype(np.intp))
            for (rows, signs), (kind, theta) in zip(self.transform_units, self.transforms):
                base = scoring.pattern_score_from_atan(kind, atans, theta)
                out[rows] = base if signs is None else base * signs
        if -1 not in self.groups:
            return
        edges = np.searchsorted(owner, np.arange(len(self.trendlines) + 1))
        for m, cu in enumerate(self.units):
            if self.groups[m] >= 0:
                continue
            for c, (trendline, context) in enumerate(zip(self.trendlines, self.contexts)):
                lanes = slice(edges[c], edges[c + 1])
                bins = ranges[:, lanes].astype(np.intp) - self.offsets[c]
                if offered is None:
                    out[m, lanes] = cu.unit.score_pairs(trendline, *bins, context)
                    continue
                chosen = offered[m, lanes]
                scores = np.zeros(chosen.shape)
                if chosen.any():
                    scores[chosen] = cu.unit.score_pairs(trendline, *bins[:, chosen], context)
                out[m, lanes] = scores

    def _leaf_tables(self, lows: np.ndarray, highs: np.ndarray) -> None:
        """The leaves' rows (:class:`_FirstLevel`)."""
        k = self.k
        owner = np.repeat(np.arange(len(self.counts)), self.counts)
        shift = self.offsets[owner]
        state = np.empty((2 * k + 3, len(owner)))
        state[-3] = lows + shift
        state[-2] = highs + shift
        state[-1] = self.min_lens[owner]
        self._unit_scores(state[-3:-1], owner, state[k : 2 * k])
        np.multiply(self.weights, state[k : 2 * k], out=state[:k])
        self.state = state
        #: Levels built, and the widest key the current level holds.
        self.depth, self.span = 0, 1

    def _merge_weights(self, plan: _CombinePlan) -> tuple:
        """Per merge row of ``plan``: its unit's weight, the weights twice
        over (for the two parts' scores) and the sign flips, or None."""
        columns = self._merge_columns.get(plan.span)
        if columns is None:
            weights = self.weights[plan.merge_unit]
            flips = self.flips[plan.merge_unit[: plan.batched]]
            columns = self._merge_columns[plan.span] = (
                weights,
                np.concatenate([weights, weights]),
                np.where(flips, -1.0, 1.0) if flips.any() else None,
            )
        return columns

    def _merged_slope_scores(self, plan, merged, ranges, signs) -> None:
        """The merged plain slope units' scores over ``[ranges[0],
        ranges[1])``, into ``merged``: one ``tan⁻¹`` gather and one
        transform per ``(kind, θ)``."""
        atans = self._slope_atans(ranges[:, : plan.batched])
        for rows, (kind, theta) in zip(plan.transform_rows, self.transforms):
            merged[rows] = scoring.pattern_score_from_atan(kind, atans[rows], theta)
        if signs is not None:
            merged[: plan.batched] *= signs

    def _merged_own_scores(self, plan, merged, ranges, offered, pairing) -> None:
        """The other merged units' scores: ``score_pairs`` per candidate,
        only where ``offered`` — where the dict tree scores them too."""
        offered[:, pairing.kept] = False  # a carried node pairs with itself
        edges = np.searchsorted(pairing.owner, np.arange(len(self.trendlines) + 1))
        for m, rows in plan.own_rows:
            unit = self.units[m].unit
            for c, (trendline, context) in enumerate(zip(self.trendlines, self.contexts)):
                lanes = slice(edges[c], edges[c + 1])
                chosen = offered[rows, lanes]
                block = np.zeros(chosen.shape)
                if chosen.any():
                    starts, ends = ranges[:, rows, lanes][:, chosen]
                    shift = self.offsets[c]
                    block[chosen] = unit.score_pairs(
                        trendline, starts - shift, ends - shift, context
                    )
                merged[rows, lanes] = block

    # -- level step --------------------------------------------------------
    def step(self) -> None:
        """Combine one level: each candidate's adjacent node pairs become
        parent nodes; an unpaired last node is carried up unchanged."""
        if self.done:
            return
        pairing = _pairing(tuple(self.counts.tolist()))
        if self.depth == 0:
            self._first_level(pairing)
        else:
            self._combine(pairing)
        self.counts = pairing.counts
        self.depth += 1
        self.span = min(2 * self.span, self.k)

    def _first_level(self, pairing: _Pairing) -> None:
        """Level one in closed form (:class:`_FirstLevel`).  Merge sums
        keep :meth:`_combine`'s operand order, so their bits."""
        plan, weights = _first_level_plan(self.k), self.weights
        lanes = len(pairing.lane)
        block = np.empty((plan.leaf_rows + plan.extra, 2 * lanes))
        self.state.take(pairing.children, axis=1, out=block[: plan.leaf_rows], mode="clip")
        self.state = None
        rows = block.reshape(-1, lanes)  # the children side by side
        k, gathered = self.k, rows.take(plan.gather, axis=0)
        left, left_score = gathered[:k], gathered[k : 2 * k]
        right, right_score = gathered[2 * k : 3 * k], gathered[3 * k : 4 * k]
        merging = rows[plan.merging]
        np.subtract(left, weights * left_score, out=merging)
        merging += right
        offered = None
        if -1 in self.groups:
            offered = merging > _NEG_INF
            offered[:, pairing.kept] = False  # a carried leaf pairs with itself
        merged = rows[plan.merged]
        self._unit_scores(gathered[4 * k :], pairing.owner, merged, offered)
        merging -= weights * right_score
        merging += weights * merged
        np.add(left[:-1], right[1:], out=rows[plan.beside])
        del gathered, left, left_score, right, right_score
        rows[plan.constant_rows] = plan.constants
        state = rows.take(plan.source, axis=0)
        if len(pairing.kept):
            state[:, pairing.kept] = rows[plan.carry, pairing.kept]
        self.state = state

    def _combine(self, pairing: _Pairing) -> None:
        """A level above the first: every option the children can form."""
        plan = _combine_plan(self.k, self.groups, self.span)
        lanes, A, M = len(pairing.lane), plan.adjacent, plan.merges
        children = len(self.state)
        block = np.empty((children + plan.extra, 2 * lanes))
        self.state.take(pairing.children, axis=1, out=block[:children], mode="clip")
        self.state = None  # freed before this level's working set peaks
        rows = block.reshape(-1, lanes)  # the children side by side
        ranges = rows.take(plan.ranges, axis=0).astype(np.intp).reshape(2, M, lanes)
        merged = rows[plan.merged_rows]
        weights, part_weights, signs = self._merge_weights(plan)
        if plan.batched:
            self._merged_slope_scores(plan, merged, ranges, signs)

        # Weighted sum of every option.  A part that becomes interior
        # must meet the width floor, or the option is never offered:
        # adjacent (i, m) ⊗ (m+1, j) sums its gated parts; merge
        # (i, m) ⊕ (m, j) re-scores unit m over the union, in the dict
        # tree's operand order (((l − w·l_last) + r) − w·r_first) + w·merged.
        floor = rows[plan.floor]
        operands = rows.take(plan.gather, axis=0)
        widths = operands[plan.minuend]
        widths -= operands[plan.subtrahend]
        widths += plan.bonus
        gated = operands[plan.sums]
        np.copyto(gated, _NEG_INF, where=widths < floor)
        scaled = operands[plan.part_scores]
        scaled *= part_weights
        sums = np.empty((M + A, lanes))
        merging = sums[:M]
        np.subtract(gated[:M], scaled[:M], out=merging)
        merging += operands[plan.right_sums]
        np.add(gated[M : M + A], gated[M + A :], out=sums[M:])
        if plan.own_rows:
            self._merged_own_scores(plan, merged, ranges, merging > _NEG_INF, pairing)
        merging -= scaled[M:]
        merging += merged * weights
        del ranges, operands, widths, gated, scaled
        options = sums.take(plan.perm, axis=0)
        del sums

        # Winner per key: the maximum; among equals, the first offered.
        # Each key's insertion rank: the order of its first offers,
        # re-densified per level so the codes stay small at any depth.
        passed = np.empty((2,) + options.shape, dtype=bool)  # [not a winner, not offered]
        np.less_equal(options, _NEG_INF, out=passed[1])
        if pairing.roots is not None:
            options = self._prefer_floor_compliant(plan, options, rows, floor, pairing.roots)
        K, formed = plan.keys, plan.formed
        state = np.empty((plan.rows, lanes))
        best = state[WSUM * K : WSUM * K + formed]
        np.maximum.reduceat(options, plan.key_start, axis=0, out=best)
        np.not_equal(options, best.take(plan.option_key, axis=0), out=passed[0])
        del options
        ranks = rows.take(plan.ranks, axis=0)
        codes = ranks[: plan.options] * plan.code_scale
        codes += plan.code_base
        codes[1] += ranks[plan.options :]
        del ranks
        np.copyto(codes, np.inf, where=passed)
        first = np.minimum.reduceat(codes, plan.key_start, axis=1)
        del codes, passed
        winner = np.empty((K, lanes), dtype=np.intp)
        winner[:formed] = first[0]
        winner[:formed] &= plan.option_bits
        state[RANK * K : RANK * K + formed] = first[1].argsort(axis=0, kind="stable").argsort(
            axis=0, kind="stable"
        )
        del first
        if formed < K:  # keys wider than two children can hold: no entry
            winner[formed:] = plan.options
            state[WSUM * K + formed : (WSUM + 1) * K] = _NEG_INF
            state[RANK * K + formed : (RANK + 1) * K] = 0.0

        # The other parent rows: one gather from the children block.
        index = np.empty((plan.rows - FIRST * K, lanes), dtype=np.intp)
        picked = plan.picked
        plan.table.take(winner, axis=1, out=index[:picked].reshape(-1, K, lanes), mode="clip")
        index[picked:] = plan.lane_sources
        if len(pairing.kept):
            state[: FIRST * K, pairing.kept] = rows[plan.carry[: FIRST * K, None], pairing.kept]
            index[:picked, pairing.kept] = plan.carry[FIRST * K :, None]
        index *= lanes
        index += pairing.lane
        block.ravel().take(index, out=state[FIRST * K :], mode="clip")
        self.state = state

    @staticmethod
    def _prefer_floor_compliant(plan, options, rows, floor, roots):
        """Root rule: where any option's first and last placements both
        meet the width floor, only such options compete."""
        O = plan.options
        ends = rows.take(plan.root_gather, axis=0)
        fits = ends[: 2 * O] - ends[2 * O :] >= floor
        compliant = np.where(fits[:O] & fits[O:], options, _NEG_INF)
        chosen = (np.maximum.reduceat(compliant, plan.key_start, axis=0) > _NEG_INF).take(
            plan.option_key, axis=0
        )
        if roots is not True:
            chosen &= roots
        return np.where(chosen, compliant, options)


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
