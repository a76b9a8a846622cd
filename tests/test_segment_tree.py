"""Tests for the SegmentTree algorithm (paper §6.2, Theorem 6.3)."""

import numpy as np
import pytest

from repro.algebra import builder as q
from repro.engine.chains import compile_query
from repro.engine.dynamic import solve_query
from repro.engine.segment_tree import (
    leaf_ranges,
    segment_tree_run_solver,
)

from benchmarks.paper.pruning import IncrementalSegmentTree
from tests.conftest import make_trendline


class TestLeafRanges:
    def test_partition_even(self):
        ranges = leaf_ranges(0, 10)
        assert ranges[0][0] == 0 and ranges[-1][1] == 10
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c
        assert all(2 <= b - a <= 3 for a, b in ranges)

    def test_partition_odd(self):
        ranges = leaf_ranges(0, 11)
        assert ranges[-1][1] == 11
        assert all(2 <= b - a <= 3 for a, b in ranges)

    def test_offset_range(self):
        ranges = leaf_ranges(7, 15)
        assert ranges[0][0] == 7 and ranges[-1][1] == 15


class TestSegmentTreeSolver:
    def test_exact_on_clean_shape(self, up_down_up):
        compiled = compile_query(q.concat(q.up(), q.down(), q.up()))
        dp = solve_query(up_down_up, compiled)
        st = solve_query(up_down_up, compiled, run_solver=segment_tree_run_solver)
        assert st.score == pytest.approx(dp.score, abs=0.02)

    def test_stays_at_or_below_dp(self):
        """DP is optimal over width-floor-compliant placements.  The
        SegmentTree can only exceed it through its documented root
        fallback — when no floor-compliant root entry exists, the best
        entry with an undersized *boundary* placement is kept — so any
        exceedance must coincide with such a placement."""
        from repro.engine.units import run_min_length

        compiled = compile_query(q.concat(q.up(), q.down(), q.up()))
        for seed in range(8):
            rng = np.random.default_rng(seed)
            trendline = make_trendline(rng.normal(0, 1, 48).cumsum(), key=seed)
            dp = solve_query(trendline, compiled)
            st = solve_query(trendline, compiled, run_solver=segment_tree_run_solver)
            if st.score > dp.score + 1e-9:
                floor = run_min_length(0, trendline.n_bins, 3)
                placements = st.solution.placements
                assert (
                    placements[0].end - placements[0].start < floor
                    or placements[-1].end - placements[-1].start < floor
                )

    def test_accuracy_close_to_dp_on_shaped_data(self, noisy_up_down_up):
        compiled = compile_query(q.concat(q.up(), q.down(), q.up()))
        dp = solve_query(noisy_up_down_up, compiled)
        st = solve_query(noisy_up_down_up, compiled, run_solver=segment_tree_run_solver)
        assert st.score >= 0.85 * dp.score

    def test_single_unit_chain(self, rising_line):
        compiled = compile_query(q.up())
        st = solve_query(rising_line, compiled, run_solver=segment_tree_run_solver)
        dp = solve_query(rising_line, compiled)
        assert st.score == pytest.approx(dp.score)

    def test_placements_partition_range(self, noisy_up_down_up):
        compiled = compile_query(q.concat(q.up(), q.down(), q.up()))
        st = solve_query(noisy_up_down_up, compiled, run_solver=segment_tree_run_solver)
        placements = st.solution.placements
        assert placements[0].start == 0
        assert placements[-1].end == noisy_up_down_up.n_bins
        for left, right in zip(placements, placements[1:]):
            assert left.end == right.start

    def test_infeasible_when_too_short(self):
        trendline = make_trendline(np.arange(4.0))
        compiled = compile_query(q.concat(q.up(), q.down(), q.up()))
        st = solve_query(trendline, compiled, run_solver=segment_tree_run_solver)
        assert st.score == -1.0

    def test_or_query(self, up_down_up):
        compiled = compile_query(q.up() >> (q.down() | (q.down() >> q.up())))
        st = solve_query(up_down_up, compiled, run_solver=segment_tree_run_solver)
        assert st.chain_index == 1
        assert st.score > 0.8

    def test_four_segments(self):
        y = np.concatenate([
            np.linspace(0, 8, 15), np.linspace(8, 1, 15),
            np.linspace(1, 9, 15), np.linspace(9, 0, 15),
        ])
        trendline = make_trendline(y, key="zigzag")
        compiled = compile_query(q.concat(q.up(), q.down(), q.up(), q.down()))
        dp = solve_query(trendline, compiled)
        st = solve_query(trendline, compiled, run_solver=segment_tree_run_solver)
        assert st.score >= 0.9 * dp.score
        assert st.score > 0.8


class TestIncrementalTree:
    def test_stepwise_equals_run(self, noisy_up_down_up):
        compiled = compile_query(q.concat(q.up(), q.down(), q.up()))
        units = list(compiled.chains[0].units)
        one_shot = IncrementalSegmentTree(noisy_up_down_up, units, 0, noisy_up_down_up.n_bins)
        entry_a = one_shot.run()
        stepped = IncrementalSegmentTree(noisy_up_down_up, units, 0, noisy_up_down_up.n_bins)
        while not stepped.done:
            stepped.step()
        entry_b = stepped.tables[0].get((0, 2))
        assert entry_a[0] == pytest.approx(entry_b[0])

    def test_ranges_shrink_per_step(self, noisy_up_down_up):
        compiled = compile_query(q.concat(q.up(), q.down()))
        units = list(compiled.chains[0].units)
        tree = IncrementalSegmentTree(noisy_up_down_up, units, 0, noisy_up_down_up.n_bins)
        previous = len(tree.ranges)
        while not tree.done:
            tree.step()
            assert len(tree.ranges) <= previous
            previous = len(tree.ranges)
        assert tree.ranges == [(0, noisy_up_down_up.n_bins)]

    def test_every_node_keeps_single_unit_entries(self, noisy_up_down_up):
        compiled = compile_query(q.concat(q.up(), q.down()))
        units = list(compiled.chains[0].units)
        tree = IncrementalSegmentTree(noisy_up_down_up, units, 0, noisy_up_down_up.n_bins)
        tree.step()
        for table in tree.tables:
            assert (0, 0) in table
            assert (1, 1) in table
