"""Parity of the candidate-batched SegmentTree kernel with the dict tree.

:class:`~repro.engine.segment_tree.BatchedSegmentTree` (what the engine
runs) must build, bit for bit, the tables of
:class:`~benchmarks.paper.pruning.IncrementalSegmentTree` (the
per-trendline reference): the same keys in the same insertion order, the
same weighted sums and the same placements at every node of every
level — and therefore the same answers through ``solve_many``.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.algebra import builder as q
from repro.algebra.primitives import Pattern
from repro.engine import dynamic, parallel, segment_tree
from repro.engine.chains import compile_query
from repro.engine.dynamic import ScoreBlock, solve_query
from repro.engine.parallel import score_shard, solve_many, solve_one
from repro.engine.segment_tree import (
    BatchedSegmentTree,
    leaf_ranges,
    segment_tree_run_solver,
)
from repro.engine.trendline import cast_trendline
from repro.engine.units import MIN_SEGMENT_BINS, default_leaf_size, run_min_length

from benchmarks.paper.pruning import IncrementalSegmentTree
from tests.conftest import make_trendline


def dict_tree_run_solver(trendline, units, lo, hi, context):
    """The per-trendline run solver over the dict tree (the oracle)."""
    m = len(units)
    if m == 0:
        return []
    if hi - lo < MIN_SEGMENT_BINS * m:
        return None
    if m == 1:
        return [(lo, hi)]
    entry = IncrementalSegmentTree(trendline, units, lo, hi, context).run()
    return None if entry is None else list(entry[1])


def batched_tables(tree, candidate):
    """One candidate's node tables in the dict tree's form:
    per node ``{(i, j): (weighted sum, placements)}`` in insertion order."""
    keys = [(i, j) for i in range(tree.k) for j in range(i, tree.k)]
    first = int(tree.counts[:candidate].sum())
    tables = []
    for lane in range(first, first + int(tree.counts[candidate])):
        lo, hi = int(tree.lows[lane]), int(tree.highs[lane])
        present = [row for row in range(len(keys)) if tree.values[0, row, lane] > -np.inf]
        present.sort(key=lambda row: tree.marks[-1, row, lane])
        table = {}
        for row in present:
            i, j = keys[row]
            inner = [int(b) for b in tree.marks[2 + i : 2 + j, row, lane]]
            bounds = [lo] + inner + [hi]
            table[(i, j)] = (
                float(tree.values[0, row, lane]),
                tuple(zip(bounds[:-1], bounds[1:])),
            )
        tables.append(table)
    return tables


def assert_same_trees(trendlines, units, bounds=None):
    """Step both trees level by level; every table must match exactly."""
    if bounds is None:
        bounds = [(0, t.n_bins) for t in trendlines]
    batched = BatchedSegmentTree(trendlines, units, bounds, [{} for _ in trendlines])
    oracles = [
        IncrementalSegmentTree(t, units, lo, hi, {}) for t, (lo, hi) in zip(trendlines, bounds)
    ]
    level = 0
    while True:
        for c, oracle in enumerate(oracles):
            want = [
                {key: (entry[0], entry[1]) for key, entry in table.items()}
                for table in oracle.tables
            ]
            got = batched_tables(batched, c)
            assert len(got) == len(want)
            for node, (g, w) in enumerate(zip(got, want)):
                assert list(g) == list(w), ("key order", level, c, node)
                assert g == w, ("entries", level, c, node)
        if batched.done:
            assert all(oracle.done for oracle in oracles)
            return
        batched.step()
        for oracle in oracles:
            oracle.step()
        level += 1


def assert_same_answers(trendlines, query):
    """``solve_many`` equals the per-trendline solve over the dict tree."""
    got = solve_many(trendlines, query, "segment-tree")
    for trendline, result in zip(trendlines, got):
        want = solve_query(trendline, query, run_solver=dict_tree_run_solver)
        assert result.score == want.score
        assert result.chain_index == want.chain_index
        assert [(p.start, p.end, p.score) for p in result.solution.placements] == [
            (p.start, p.end, p.score) for p in want.solution.placements
        ]


def tree_sizes(monkeypatch):
    """Spy on :class:`BatchedSegmentTree`: the candidates of each tree built."""
    sizes = []
    build = BatchedSegmentTree.__init__

    def spy(self, trendlines, *args, **kwargs):
        sizes.append(len(trendlines))
        build(self, trendlines, *args, **kwargs)

    monkeypatch.setattr(BatchedSegmentTree, "__init__", spy)
    return sizes


def walks(count, length, seed=0):
    rng = np.random.default_rng(seed)
    return [
        make_trendline(rng.normal(0, 1, length).cumsum(), key="w{}".format(i))
        for i in range(count)
    ]


def alternating(k):
    return [q.up() if i % 2 == 0 else q.down() for i in range(k)]


def units_of(node):
    return list(compile_query(node).chains[0].units)


#: Unit kinds for generated chains: every plain slope kind, plus two the
#: batched kernels score per candidate (a y-constrained slope, a sketch).
MIXED_KINDS = {
    "up": q.up,
    "down": q.down,
    "flat": q.flat,
    "theta": lambda: q.slope(30.0),
    "any": q.any_pattern,
    "empty": lambda: q.segment(pattern=Pattern(kind="empty")),
    "!down": lambda: q.opposite(q.down()),
    "sharp": lambda: q.up(sharp=True),
    "y-up": lambda: q.up(y_start=0.0),
    "sketch": lambda: q.sketch([(0, 0), (1, 2), (2, 1)]),
}


def leaf_count(length, k):
    return len(leaf_ranges(0, length, default_leaf_size(run_min_length(0, length, k))))


@st.composite
def plain_unit(draw):
    """An up/down/flat/θ/any/empty segment, maybe negated, sharp or
    gradual, and x-pinned on one side, both or neither."""
    kind = draw(st.sampled_from(("up", "down", "flat", "theta", "any", "empty")))
    pins = {}
    side = draw(st.sampled_from(("none", "none", "none", "both", "start", "end")))
    if side != "none":
        start = draw(st.integers(0, 40))
        if side != "end":
            pins["x_start"] = float(start)
        if side != "start":
            pins["x_end"] = float(start + draw(st.integers(1, 30)))
    if kind in ("up", "down"):
        modifier = draw(st.sampled_from(("plain", "sharp", "gradual")))
        node = getattr(q, kind)(
            sharp=modifier == "sharp", gradual=modifier == "gradual", **pins
        )
    elif kind == "theta":
        node = q.slope(draw(st.sampled_from((-60.0, -15.0, 0.0, 30.0, 75.0))), **pins)
    elif kind == "flat":
        node = q.flat(**pins)
    elif kind == "any":
        node = q.any_pattern(**pins)
    else:
        node = q.segment(pattern=Pattern(kind="empty"), **pins)
    return q.opposite(node) if draw(st.booleans()) else node


@st.composite
def plain_queries(draw):
    """One to three OR-alternatives of one to four plain units; now and
    then an alternative with a sketch, so plain and per-candidate chains
    share a block."""
    alternatives = [
        q.concat(*draw(st.lists(plain_unit(), min_size=1, max_size=4)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    if draw(st.integers(0, 4)) == 0:
        alternatives.append(q.concat(q.up(), q.sketch([(0, 0), (1, 1)])))
    return compile_query(q.or_(*alternatives))


def result_bits(result):
    """Everything a result reports, floats as hex (so -0.0 != 0.0)."""
    placed = result.solution.placements
    for value in [result.score] + [p.score for p in placed] + [p.slope for p in placed]:
        assert type(value) is float
    for value in [result.chain_index] + [p.start for p in placed] + [p.end for p in placed]:
        assert type(value) is int
    return (
        result.score.hex(),
        result.chain_index,
        [
            (p.seg_index, p.start, p.end, p.score.hex(), p.weight.hex(), p.slope.hex())
            for p in placed
        ],
    )


class TestTableParity:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("length", [24, 47, 128])
    def test_slope_chains(self, k, length):
        assert_same_trees(walks(5, length, seed=k), units_of(q.concat(*alternating(k))))

    @pytest.mark.parametrize("length", [13, 15, 35, 67, 131])
    def test_odd_leaf_counts_carry_a_node(self, length):
        units = units_of(q.concat(q.up(), q.down(), q.up()))
        tree = BatchedSegmentTree(walks(1, length), units, [(0, length)], [{}])
        counts = []
        while not tree.done:
            counts.append(int(tree.counts[0]))
            tree.step()
        assert any(count % 2 == 1 for count in counts)
        assert_same_trees(walks(4, length, seed=length), units)

    def test_every_slope_kind(self):
        node = q.concat(
            q.flat(), q.slope(30.0), q.up(sharp=True), q.opposite(q.up()), q.any_pattern()
        )
        assert_same_trees(walks(6, 90, seed=5), units_of(node))

    def test_constant_and_saturated_series_tie_to_first_offer(self):
        # Constant series score every range alike; near-vertical steps pin
        # tan⁻¹ at its clamp — both make exact ties the rule, so the
        # winner is decided by the dict tree's first-offer order alone.
        lines = [
            make_trendline(np.full(64, 3.0), key="const"),
            make_trendline(np.arange(64) * 1e9, key="steep"),
            make_trendline(np.repeat([0.0, 1e12, 0.0, 1e12], 16), key="steps"),
            make_trendline(np.tile([0.0, 1.0], 32), key="zigzag"),
        ]
        for k in (2, 3, 4, 5):
            assert_same_trees(lines, units_of(q.concat(*alternating(k))))
        wild = q.concat(q.any_pattern(), q.up(), q.any_pattern(), q.any_pattern())
        assert_same_trees(lines + walks(3, 64), units_of(wild))

    def test_fallback_units(self):
        # Line, sketch, quantifier, nested and y-constrained units are
        # scored per candidate through score_pairs, beside batched slopes.
        lines = walks(4, 60, seed=11)
        level = float(np.median(lines[0].bin_y))
        for node in (
            q.concat(q.up(), q.segment(pattern=None, y_start=level, y_end=level + 1.0)),
            q.concat(q.sketch([(0, 0), (1, 2), (2, 0)]), q.down()),
            q.concat(q.repeated(q.up(), low=2), q.down(), q.up()),
            q.concat(q.nested(q.concat(q.up(), q.down())), q.flat()),
            q.concat(q.up(y_start=level), q.down(), q.up(y_end=level)),
        ):
            assert_same_trees(lines, units_of(node))

    def test_trees_of_different_shapes_share_the_arrays(self):
        # Different lengths and bounds: different leaves, depths, width
        # floors and root levels, one lane axis.
        lengths = (6, 13, 128, 40, 7, 73, 40, 15)
        lines = [walks(1, n, seed=n + i)[0] for i, n in enumerate(lengths)]
        bounds = [(0, n) for n in lengths]
        bounds[2], bounds[5] = (17, 101), (3, 70)
        for k in (2, 3, 4):
            fits = [i for i, (lo, hi) in enumerate(bounds) if hi - lo >= MIN_SEGMENT_BINS * k]
            assert_same_trees(
                [lines[i] for i in fits],
                units_of(q.concat(*alternating(k))),
                bounds=[bounds[i] for i in fits],
            )
        mixed = q.concat(q.repeated(q.up(), low=2), q.down(), q.sketch([(0, 0), (1, 2)]))
        assert_same_trees(lines[1:], units_of(mixed), bounds=bounds[1:])

    def test_sub_range_and_float32(self):
        units = units_of(q.concat(q.up(), q.down(), q.up()))
        assert_same_trees(walks(3, 80, seed=2), units, bounds=[(7, 61)] * 3)
        singles = [cast_trendline(t, np.float32) for t in walks(3, 80, seed=3)]
        assert_same_trees(singles, units)

    @given(
        k=st.integers(2, 5),
        length=st.integers(4, 70),
        series=st.lists(
            st.lists(st.integers(-3, 3), min_size=70, max_size=70), min_size=1, max_size=4
        ),
    )
    def test_random_small_integer_series(self, k, length, series):
        # Small integer steps: plenty of exact score ties and plateaus.
        length = max(length, MIN_SEGMENT_BINS * k)
        lines = [
            make_trendline(np.cumsum(values[:length], dtype=float), key=i)
            for i, values in enumerate(series)
        ]
        assert_same_trees(lines, units_of(q.concat(*alternating(k))))

    @given(
        kinds=st.lists(st.sampled_from(sorted(MIXED_KINDS)), min_size=2, max_size=5),
        lengths=st.lists(st.integers(8, 200), min_size=1, max_size=40),
        seed=st.integers(0, 2**16),
    )
    def test_random_kind_mixes_over_ragged_blocks(self, kinds, lengths, seed):
        # Level one is written in closed form, level zero and the general
        # combine by option tables: every level must still be the dict
        # tree's, key insertion order included, for any mix of kinds and
        # lengths — the first candidate padded to an odd leaf count, so a
        # leaf is carried past the closed-form level in every example.
        units = units_of(q.concat(*[MIXED_KINDS[kind]() for kind in kinds]))
        while leaf_count(lengths[0], len(units)) % 2 == 0:
            lengths[0] += 1
        rng = np.random.default_rng(seed)
        lines = [
            make_trendline(
                rng.integers(-3, 4, n).cumsum().astype(float)
                if i % 2
                else rng.normal(0, 1, n).cumsum(),
                key=i,
            )
            for i, n in enumerate(lengths)
        ]
        assert_same_trees(lines, units)


class TestSolveMany:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_answers_match_the_dict_tree(self, k):
        assert_same_answers(walks(9, 75, seed=k), compile_query(q.concat(*alternating(k))))

    def test_mixed_lengths_in_one_shard(self):
        lines = walks(3, 40) + walks(4, 73, seed=1) + walks(2, 40, seed=2) + walks(1, 5)
        assert_same_answers(lines, compile_query(q.concat(q.up(), q.down(), q.up())))

    def test_too_short_runs_are_infeasible(self):
        query = compile_query(q.concat(q.up(), q.down(), q.up()))
        lines = [make_trendline(np.arange(n, dtype=float), key=n) for n in (4, 5, 6, 7)]
        assert_same_answers(lines, query)
        assert [r.score for r in solve_many(lines[:2], query, "segment-tree")] == [-1.0, -1.0]

    def test_pinned_units_split_the_chain_into_runs(self):
        lines = walks(6, 64, seed=4)
        for node in (
            q.concat(q.up(x_start=10), q.down(), q.up()),
            q.concat(q.up(), q.down(x_end=40), q.up(), q.down()),
            q.concat(q.up(), q.down(x_start=20, x_end=30), q.up(), q.flat()),
        ):
            assert_same_answers(lines, compile_query(node))

    def test_or_alternatives_and_position(self):
        lines = walks(5, 64, seed=6)
        either = q.up() >> (q.down() | (q.down() >> q.up()))
        assert_same_answers(lines, compile_query(either))
        steeper = q.concat(q.up(), q.down(), q.position(index=0, comparison=">"))
        assert_same_answers(lines, compile_query(steeper))

    def test_batch_size_and_order_do_not_matter(self, monkeypatch):
        query = compile_query(q.concat(q.up(), q.down(), q.up()))
        lines = walks(40, 64, seed=8)
        trees = tree_sizes(monkeypatch)
        together = solve_many(lines, query, "segment-tree")
        assert trees == [40]
        alone = [solve_one(t, query, "segment-tree") for t in lines]
        order = np.random.default_rng(0).permutation(len(lines))
        monkeypatch.setattr(segment_tree, "BATCH_BLOCK", 16)
        monkeypatch.setattr(segment_tree, "BATCH_CELLS", 0)  # close at BATCH_BLOCK
        trees.clear()
        shuffled = solve_many([lines[i] for i in order], query, "segment-tree")
        assert trees == [16, 16, 8]
        for i, result in enumerate(together):
            assert result == alone[i]
        for slot, i in enumerate(order):
            assert shuffled[slot] == together[i]

    def test_lane_budget_closes_blocks_early(self, monkeypatch):
        # Both caps close a tree: the lanes below BATCH_BLOCK candidates,
        # the marks cells only above it.
        query = compile_query(q.concat(q.up(), q.down(), q.up()))
        lines = walks(5, 200, seed=9) + walks(3, 31, seed=10)
        want = solve_many(lines, query, "segment-tree")
        lanes = segment_tree.BATCH_LANES
        trees = tree_sizes(monkeypatch)
        monkeypatch.setattr(segment_tree, "BATCH_LANES", 45)  # < two long lines' leaves
        assert solve_many(lines, query, "segment-tree") == want
        assert trees == [1, 1, 1, 1, 1, 3]
        monkeypatch.setattr(segment_tree, "BATCH_LANES", lanes)
        monkeypatch.setattr(segment_tree, "BATCH_CELLS", 0)
        trees.clear()
        assert solve_many(lines, query, "segment-tree") == want
        assert trees == [8]  # fewer than BATCH_BLOCK: the cells never close it
        monkeypatch.setattr(segment_tree, "BATCH_BLOCK", 3)
        trees.clear()
        assert solve_many(lines, query, "segment-tree") == want
        assert trees == [3, 3, 2]

    def test_other_algorithms_loop(self):
        query = compile_query(q.concat(q.up(), q.down()))
        lines = walks(3, 30)
        for algorithm in ("dp", "greedy"):
            assert solve_many(lines, query, algorithm) == [
                solve_one(t, query, algorithm) for t in lines
            ]


class TestColumnarFinalize:
    """``solve_many``'s columnar final pass is the per-candidate
    ``_finalize`` — what ``solve_query`` runs — bit for bit."""

    @given(
        query=plain_queries(),
        size=st.sampled_from([1, 31, 33]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_the_per_candidate_pass(self, query, size, seed):
        # Ragged lengths, many below 2·k bins (infeasible runs); pins that
        # fall outside short series; OR alternatives that tie.
        rng = np.random.default_rng(seed)
        lines = [
            make_trendline(rng.normal(0, 1, n).cumsum(), key=i)
            for i, n in enumerate(rng.integers(2, 61, size))
        ]
        block = solve_many(lines, query, "segment-tree")
        assert isinstance(block, ScoreBlock) and len(block) == size
        for c, line in enumerate(lines):
            want = solve_query(line, query, run_solver=segment_tree_run_solver)
            assert result_bits(block[c]) == result_bits(want)
            assert float(block.scores[c]).hex() == want.score.hex()
            assert block.chain_index[c] == want.chain_index

    def test_scores_use_math_atan_not_np_arctan(self):
        # The scalar pass scores tan⁻¹ with math.atan; np.arctan differs
        # from it in the last bit for a fraction of slopes.  Find one and
        # check the columnar pass reports the scalar bits.
        rng = np.random.default_rng(0)
        for _ in range(20000):
            line = make_trendline(rng.normal(0, 1, 12).cumsum())
            slope = line.prefix.slope(0, line.n_bins)
            scalar = 2.0 * math.atan(slope) / math.pi
            if scalar != 2.0 * float(np.arctan(slope)) / math.pi:
                break
        else:
            pytest.skip("np.arctan agrees with math.atan on every slope tried")
        placed = solve_many([line], compile_query(q.up()), "segment-tree")[0]
        assert [(p.start, p.end) for p in placed.solution.placements] == [(0, line.n_bins)]
        assert placed.solution.placements[0].score == scalar
        assert placed.score == scalar


class TestScoreBlock:
    QUERY = compile_query(q.concat(q.up(), q.down(), q.up()))

    def test_the_block_is_the_list_it_stands_for(self):
        lines = walks(6, 50, seed=3)
        block = solve_many(lines, self.QUERY, "segment-tree")
        listed = [solve_query(t, self.QUERY, run_solver=segment_tree_run_solver) for t in lines]
        assert block[1:4] == listed[1:4]  # before anything else is built
        assert block == listed and listed == block
        assert block != listed[:-1]
        assert list(block) == listed
        assert block[-1] is block[len(block) - 1]  # built once
        assert block.scores.tolist() == [result.score for result in listed]
        assert block.chain_index.tolist() == [result.chain_index for result in listed]
        assert len(solve_many([], self.QUERY, "segment-tree")) == 0


class TestShardBlocks:
    PINNED = compile_query(q.concat(q.up(x_start=0, x_end=20), q.down(), q.up()))

    def _collection(self):
        rng = np.random.default_rng(1)
        peak = np.concatenate([np.linspace(0, 9, 21), np.linspace(9, 0, 20), np.linspace(0, 5, 19)])
        lines = []
        for i in range(90):
            base = peak if i % 9 == 0 else np.linspace(9, 0, 60)
            lines.append(make_trendline(base + rng.normal(0, 0.2, 60), key="c{}".format(i)))
        return lines

    @staticmethod
    def _ranked(shard):
        return sorted(
            ((score, position, t.key) for score, position, t, _ in shard.items),
            key=lambda item: (-item[0], item[1]),
        )

    def test_pushdown_only_skips_work(self):
        lines = self._collection()
        on = score_shard(lines, 5, self.PINNED, 4, enable_pushdown=True)
        off = score_shard(lines, 5, self.PINNED, 4, enable_pushdown=False)
        assert self._ranked(on) == self._ranked(off)
        assert on.eager_discarded > 0 and off.eager_discarded == 0
        assert on.scored + on.eager_discarded == len(lines) == off.scored

    def test_eager_blocks_keep_the_floor_schedule(self, monkeypatch):
        # Eager checks read the floor as it stands before each block, so
        # their blocks stay k, then BATCH_BLOCK, whatever a tree may hold.
        bound, solve = parallel.eager_upper_bound, parallel.solve_many
        bounded, blocks = [], []

        def counted_bound(*args):
            bounded.append(1)
            return bound(*args)

        def counted_solve(trendlines, *args, **kwargs):
            blocks.append(len(bounded) or len(trendlines))  # the first block is unbounded
            bounded.clear()
            return solve(trendlines, *args, **kwargs)

        monkeypatch.setattr(parallel, "eager_upper_bound", counted_bound)
        monkeypatch.setattr(parallel, "solve_many", counted_solve)
        lines = self._collection()
        shard = score_shard(lines, 5, self.PINNED, 4)
        assert blocks == [4, 32, 32, 22]
        assert (shard.scored, shard.eager_discarded) == (42, 48)
        blocks.clear()
        shard = score_shard(lines, 0, self.PINNED, 6)
        assert blocks == [6, 32, 32, 20]
        assert (shard.scored, shard.eager_discarded) == (72, 18)

    @pytest.mark.parametrize("block", [1, 3, 7, 1000])
    def test_results_do_not_depend_on_block_boundaries(self, monkeypatch, block):
        lines = self._collection()
        want = self._ranked(score_shard(lines, 0, self.PINNED, 6))
        monkeypatch.setattr(parallel, "BATCH_BLOCK", block)
        shard = score_shard(lines, 0, self.PINNED, 6)
        assert self._ranked(shard) == want
        assert shard.scored + shard.eager_discarded == len(lines)

    def test_score_shard_builds_results_only_for_what_it_keeps(self, monkeypatch):
        built = []

        class Counting(dynamic.QueryResult):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(dynamic, "QueryResult", Counting)
        lines = self._collection()
        sketched = compile_query(q.concat(q.sketch([(0, 0), (1, 2), (2, 0)]), q.down()))
        for query in (self.PINNED, compile_query(q.concat(q.up(), q.down())), sketched):
            for k in (1, 4, 200):
                built.clear()
                shard = score_shard(lines, 0, query, k)
                assert len(built) == min(k, shard.scored) == len(shard.items)


@st.composite
def unit_chains(draw):
    """One chain of one to seven plain units, some x-pinned."""
    return compile_query(q.concat(*draw(st.lists(plain_unit(), min_size=1, max_size=7))))


def shard_bits(shard):
    """A shard's kept items in merge order, floats as hex."""
    ranked = sorted(shard.items, key=lambda item: (-item[0], item[1]))
    return [(score.hex(), position, result_bits(result)) for score, position, _, result in ranked]


class TestTreeBudget:
    """A shard's block is one tree while the tree's marks table fits
    ``BATCH_CELLS``; lanes are independent, so the cuts change no bit."""

    @given(
        query=unit_chains(),
        count=st.integers(1, 70),
        cells=st.sampled_from([0, 1, segment_tree.BATCH_CELLS, 10**9]),
        lanes=st.sampled_from([1, 45, segment_tree.BATCH_LANES, 10**9]),
        block=st.sampled_from([1, 32, 1000]),
        elements=st.sampled_from([1, parallel.BLOCK_ELEMENTS, 10**9]),
        k=st.sampled_from([1, 5, 50]),
        seed=st.integers(0, 2**16),
    )
    def test_results_do_not_depend_on_the_cuts(
        self, query, count, cells, lanes, block, elements, k, seed
    ):
        # Ragged 8–300-bin series, a fifth under 16 bins: some fall below
        # two bins per unit (infeasible runs).
        rng = np.random.default_rng(seed)
        lengths = np.where(
            rng.random(count) < 0.2, rng.integers(8, 16, count), rng.integers(8, 301, count)
        )
        lines = [
            make_trendline(rng.normal(0, 1, n).cumsum(), key=i) for i, n in enumerate(lengths)
        ]
        want = solve_many(lines, query, "segment-tree")
        want_shard = score_shard(lines, 3, query, k)
        with mock.patch.multiple(
            segment_tree, BATCH_CELLS=cells, BATCH_LANES=lanes, BATCH_BLOCK=block
        ), mock.patch.multiple(parallel, BATCH_BLOCK=block, BLOCK_ELEMENTS=elements):
            got = solve_many(lines, query, "segment-tree")
            shard = score_shard(lines, 3, query, k)
        assert [result_bits(r) for r in got] == [result_bits(r) for r in want]
        assert [s.hex() for s in got.scores.tolist()] == [s.hex() for s in want.scores.tolist()]
        assert got.chain_index.tolist() == want.chain_index.tolist()
        assert shard_bits(shard) == shard_bits(want_shard)
        assert shard.scored + shard.eager_discarded == len(lines)

    @pytest.mark.parametrize(
        "k, trees",
        [
            (2, [120]),
            (3, [105, 15]),
            (4, [52, 52, 16]),
            (5, [32, 32, 32, 24]),
            (6, [32, 32, 32, 24]),  # the cells never cut below BATCH_BLOCK
        ],
    )
    def test_trees_per_shard(self, monkeypatch, k, trees):
        # A cold tail read: 120 candidates of 100 bins, 20 leaves each.
        lines = walks(120, 100)
        trees_built = tree_sizes(monkeypatch)
        shard = score_shard(lines, 0, compile_query(q.concat(*alternating(k))), 3)
        assert trees_built == trees
        assert shard.scored == 120

    @staticmethod
    def _peak(run):
        run()  # plans and pairings cached
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_tree_peak_stays_at_the_32_candidate_five_unit_tree(self, monkeypatch):
        # BATCH_CELLS = 0 cuts every chain at BATCH_BLOCK candidates: the
        # largest of those peaks (5 units) is the ceiling, plus 10 %.
        lines = walks(120, 100)
        queries = [compile_query(q.concat(*alternating(k))) for k in (2, 3, 4, 5)]

        def peaks():
            return [
                self._peak(lambda query=query: solve_many(lines, query, "segment-tree"))
                for query in queries
            ]

        with monkeypatch.context() as patch:
            patch.setattr(segment_tree, "BATCH_CELLS", 0)
            ceiling = max(peaks())
        assert max(peaks()) <= 1.1 * ceiling

    def test_shard_peak_is_flat_in_the_shard_size(self):
        # 400-bin prefix rows: 130 candidates fill BLOCK_ELEMENTS, so both
        # shards peak at one block's working set.  The margin is for what
        # grows with the shard: its row ends, and the columns of up to k
        # earlier blocks that kept items still point into.
        lines = walks(2000, 400)
        query = compile_query(q.concat(q.up(), q.down()))
        small = self._peak(lambda: score_shard(lines[:400], 0, query, 5))
        large = self._peak(lambda: score_shard(lines, 0, query, 5))
        assert large <= 1.05 * small
