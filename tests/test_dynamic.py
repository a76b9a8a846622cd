"""Tests for the DP engine, including DP == exhaustive (Theorem 6.1/6.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import builder as q
from repro.engine.chains import compile_query
from repro.engine.dynamic import plan_layout, solve_chain, solve_query
from repro.engine.units import INFEASIBLE

from tests.conftest import make_trendline
from tests.oracles.exhaustive import (
    enumerate_run_placements,
    exhaustive_solve_query,
)


def _random_trendline(seed, n=18):
    rng = np.random.default_rng(seed)
    return make_trendline(rng.normal(0, 1, n).cumsum(), key="rand{}".format(seed))


QUERIES = [
    q.concat(q.up(), q.down()),
    q.concat(q.up(), q.down(), q.up()),
    q.concat(q.flat(), q.up()),
    q.concat(q.slope(45), q.down()),
    q.up() >> (q.flat() | q.down()),
    q.concat(q.up(), q.or_(q.flat(), q.concat(q.down(), q.up()))),
]


class TestAgainstExhaustiveOracle:
    @pytest.mark.parametrize("query_index", range(len(QUERIES)))
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_dp_equals_exhaustive(self, query_index, seed):
        """Theorem 6.1: the DP recurrence finds the optimal segmentation."""
        trendline = _random_trendline(seed)
        compiled = compile_query(QUERIES[query_index])
        dp = solve_query(trendline, compiled)
        oracle = exhaustive_solve_query(trendline, compiled)
        assert dp.score == pytest.approx(oracle.score, abs=1e-9)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15)
    def test_dp_equals_exhaustive_property(self, seed):
        trendline = _random_trendline(seed, n=14)
        compiled = compile_query(q.concat(q.up(), q.down(), q.up()))
        dp = solve_query(trendline, compiled)
        oracle = exhaustive_solve_query(trendline, compiled)
        assert dp.score == pytest.approx(oracle.score, abs=1e-9)

    def test_dp_with_pinned_segment_matches_oracle(self):
        trendline = _random_trendline(11, n=20)
        tree = q.concat(q.up(x_start=0, x_end=8), q.down(), q.up())
        compiled = compile_query(tree)
        dp = solve_query(trendline, compiled)
        oracle = exhaustive_solve_query(trendline, compiled)
        assert dp.score == pytest.approx(oracle.score, abs=1e-9)


class TestSolveChain:
    def test_finds_clean_breakpoints(self, up_down_up):
        compiled = compile_query(q.concat(q.up(), q.down(), q.up()))
        solution = solve_chain(up_down_up, compiled.chains[0])
        bounds = solution.boundaries
        assert bounds[0] == 0 and bounds[-1] == up_down_up.n_bins
        assert bounds[1] == pytest.approx(20, abs=2)
        assert bounds[2] == pytest.approx(40, abs=2)

    def test_score_bounded(self, noisy_up_down_up):
        compiled = compile_query(q.concat(q.up(), q.down(), q.up()))
        solution = solve_chain(noisy_up_down_up, compiled.chains[0])
        assert -1.0 <= solution.score <= 1.0

    def test_single_unit_covers_everything(self, rising_line):
        compiled = compile_query(q.up())
        solution = solve_chain(rising_line, compiled.chains[0])
        assert solution.boundaries == [0, rising_line.n_bins]

    def test_infeasible_when_too_short(self):
        trendline = make_trendline(np.arange(4.0))
        compiled = compile_query(q.concat(q.up(), q.down(), q.up()))
        solution = solve_chain(trendline, compiled.chains[0])
        assert solution.score == INFEASIBLE

    def test_placements_report_scores_and_slopes(self, up_down_up):
        compiled = compile_query(q.concat(q.up(), q.down(), q.up()))
        solution = solve_chain(up_down_up, compiled.chains[0])
        assert len(solution.placements) == 3
        assert solution.placements[0].score > 0.5
        assert solution.placements[1].slope < 0

    def test_or_query_picks_best_chain(self, up_down_up):
        compiled = compile_query(q.up() >> (q.down() | (q.down() >> q.up())))
        result = solve_query(up_down_up, compiled)
        assert result.chain_index == 1  # the down⊗up branch matches the V tail


class TestPositionQueries:
    def test_position_two_pass(self):
        # Slow rise then much steeper rise: second slope > first.
        y = np.concatenate([np.linspace(0, 2, 30), np.linspace(2, 12, 30)])
        trendline = make_trendline(y, key="accel")
        tree = q.concat(q.up(), q.position(index=0, comparison=">"))
        compiled = compile_query(tree)
        result = solve_query(trendline, compiled)
        assert result.score > 0.3
        # The inverse comparison must score worse.
        inverse = compile_query(q.concat(q.up(), q.position(index=0, comparison="<")))
        assert solve_query(trendline, inverse).score < result.score

    def test_paper_luminosity_example(self):
        """[p=up][p=$0,m=<]: rises fast then slows (paper §3.1)."""
        y = np.concatenate([np.linspace(0, 10, 30), np.linspace(10, 11, 30)])
        trendline = make_trendline(y, key="slowing")
        compiled = compile_query(q.concat(q.up(), q.position(index=0, comparison="<")))
        assert solve_query(trendline, compiled).score > 0.4


class TestPlanLayout:
    def _chain(self, tree):
        return compile_query(tree).chains[0]

    def test_fully_fuzzy_single_run(self, up_down_up):
        chain = self._chain(q.concat(q.up(), q.down()))
        layout = plan_layout(up_down_up, chain, 0, up_down_up.n_bins)
        assert len(layout) == 1
        assert layout[0].kind == "fuzzy"
        assert layout[0].indices == [0, 1]

    def test_pinned_splits_runs(self, up_down_up):
        chain = self._chain(q.concat(q.up(), q.down(x_start=20, x_end=40), q.up()))
        layout = plan_layout(up_down_up, chain, 0, up_down_up.n_bins)
        kinds = [piece.kind for piece in layout]
        assert kinds == ["fuzzy", "pinned", "fuzzy"]
        assert layout[1].start == 20

    def test_start_only_pin_fixes_boundary(self, up_down_up):
        chain = self._chain(q.concat(q.up(), q.down(x_start=30)))
        layout = plan_layout(up_down_up, chain, 0, up_down_up.n_bins)
        assert layout[0].kind == "fuzzy" and layout[0].end == 30
        assert layout[1].start == 30


class TestEnumerateRunPlacements:
    def test_counts(self):
        # 3 units over 8 bins, min 2 each: compositions of 8 into 3 parts >= 2.
        placements = enumerate_run_placements(3, 0, 8)
        assert len(placements) == 6

    def test_all_valid(self):
        for placement in enumerate_run_placements(3, 0, 10):
            assert placement[0][0] == 0
            assert placement[-1][1] == 10
            for (a, b), (c, d) in zip(placement, placement[1:]):
                assert b == c
            assert all(b - a >= 2 for a, b in placement)

    def test_impossible_returns_empty(self):
        assert enumerate_run_placements(3, 0, 5) == []
