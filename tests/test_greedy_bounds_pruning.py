"""Tests for the greedy baseline, Table 7 bounds, and two-stage pruning."""

import numpy as np

from repro.algebra import builder as q
from repro.engine.chains import compile_query
from repro.engine.dynamic import solve_query
from repro.engine.greedy import greedy_run_solver
from repro.engine.segment_tree import segment_tree_run_solver
from repro.engine.shape_index import is_prunable

from benchmarks.paper.bounds import chain_bounds, level_slopes, query_bounds, query_upper_bound
from benchmarks.paper.pruning import PruningReport, decimate, prune_and_rank
from tests.conftest import make_trendline


class TestGreedy:
    def test_valid_partition(self, noisy_up_down_up):
        compiled = compile_query(q.concat(q.up(), q.down(), q.up()))
        result = solve_query(noisy_up_down_up, compiled, run_solver=greedy_run_solver)
        placements = result.solution.placements
        assert placements[0].start == 0
        assert placements[-1].end == noisy_up_down_up.n_bins
        for left, right in zip(placements, placements[1:]):
            assert left.end == right.start
            assert right.end - right.start >= 2

    def test_never_beats_dp(self):
        compiled = compile_query(q.concat(q.up(), q.down(), q.up()))
        for seed in range(6):
            rng = np.random.default_rng(seed + 100)
            trendline = make_trendline(rng.normal(0, 1, 40).cumsum(), key=seed)
            dp = solve_query(trendline, compiled)
            greedy = solve_query(trendline, compiled, run_solver=greedy_run_solver)
            assert greedy.score <= dp.score + 1e-9

    def test_good_on_clean_shapes(self, up_down_up):
        compiled = compile_query(q.concat(q.up(), q.down(), q.up()))
        dp = solve_query(up_down_up, compiled)
        greedy = solve_query(up_down_up, compiled, run_solver=greedy_run_solver)
        assert greedy.score >= 0.8 * dp.score

    def test_single_unit(self, rising_line):
        compiled = compile_query(q.up())
        result = solve_query(rising_line, compiled, run_solver=greedy_run_solver)
        assert result.solution.boundaries == [0, rising_line.n_bins]


class TestBounds:
    def _grid(self, trendline, size):
        n = trendline.n_bins
        return [(s, min(s + size, n)) for s in range(0, n - 1, size)]

    def test_level_slopes_shape(self, noisy_up_down_up):
        ranges = self._grid(noisy_up_down_up, 8)
        slopes = level_slopes(noisy_up_down_up, ranges)
        assert len(slopes) == len(ranges)

    def test_tree_bounds_contain_engine_scores(self):
        """The §6.3 pruning invariant: UB from current tables >= final score.

        Bounds from raw coarse windows are NOT valid for placements finer
        than the window (a fine 'down' segment disappears inside a big
        rising window), so the driver bounds from the entries' recorded
        placements instead — checked here at every level.
        """
        from benchmarks.paper.pruning import IncrementalSegmentTree, tree_upper_bound

        compiled = compile_query(q.concat(q.up(), q.down(), q.up()))
        chain = compiled.chains[0]
        for seed in range(8):
            rng = np.random.default_rng(seed)
            trendline = make_trendline(rng.normal(0, 1, 64).cumsum(), key=seed)
            result = solve_query(trendline, compiled, run_solver=segment_tree_run_solver)
            tree = IncrementalSegmentTree(trendline, list(chain.units), 0, trendline.n_bins)
            while not tree.done:
                tree.step()
                upper = tree_upper_bound(trendline, chain, tree)
                assert result.score <= upper + 1e-6

    def test_grid_bounds_valid_at_fine_granularity(self):
        """Leaf-granularity window bounds hold (the paper's 'loose' case)."""
        compiled = compile_query(q.concat(q.up(), q.down(), q.up()))
        for seed in range(6):
            rng = np.random.default_rng(seed)
            trendline = make_trendline(rng.normal(0, 1, 64).cumsum(), key=seed)
            result = solve_query(trendline, compiled, run_solver=segment_tree_run_solver)
            lower, upper = query_bounds(trendline, compiled, self._grid(trendline, 2))
            assert result.score <= upper + 0.1

    def test_chain_bounds_weighting(self, rising_line):
        compiled = compile_query(q.concat(q.up(), q.up()))
        slopes = level_slopes(rising_line, self._grid(rising_line, 8))
        lower, upper = chain_bounds(rising_line, compiled.chains[0], slopes)
        assert -1.0 <= lower <= upper <= 1.0

    def test_query_upper_bound_grid(self, noisy_up_down_up):
        compiled = compile_query(q.concat(q.up(), q.down()))
        upper = query_upper_bound(noisy_up_down_up, compiled, 8)
        result = solve_query(noisy_up_down_up, compiled, run_solver=segment_tree_run_solver)
        assert result.score <= upper + 1e-6


class TestPruning:
    def _collection(self, n=40, length=64):
        """One planted up-down-up needle among random walks."""
        rng = np.random.default_rng(0)
        lines = []
        needle = np.concatenate([
            np.linspace(0, 8, length // 3),
            np.linspace(8, 1, length // 3),
            np.linspace(1, 9, length - 2 * (length // 3)),
        ])
        lines.append(make_trendline(needle + rng.normal(0, 0.2, length), key="needle"))
        for index in range(n - 1):
            lines.append(
                make_trendline(rng.normal(0, 1, length).cumsum(), key="walk{}".format(index))
            )
        return lines

    def test_is_prunable(self):
        assert is_prunable(compile_query(q.concat(q.up(), q.down())))
        assert not is_prunable(compile_query(q.concat(q.up(x_start=0, x_end=5), q.down())))
        assert not is_prunable(compile_query(q.up(window=4)))

    def test_decimate(self, noisy_up_down_up):
        reduced = decimate(noisy_up_down_up, 16)
        assert reduced.n_bins <= 32
        untouched = decimate(noisy_up_down_up, 1000)
        assert untouched.n_bins == noisy_up_down_up.n_bins

    def test_finds_the_needle(self):
        lines = self._collection()
        compiled = compile_query(q.concat(q.up(), q.down(), q.up()))
        report = PruningReport()
        ranked = prune_and_rank(lines, compiled, k=3, report=report)
        assert ranked[0][0].key == "needle"
        assert report.candidates == len(lines)
        assert report.completed >= 3

    def test_agrees_with_unpruned_topk(self):
        lines = self._collection(n=25)
        compiled = compile_query(q.concat(q.up(), q.down(), q.up()))
        pruned = prune_and_rank(lines, compiled, k=5)
        pruned_keys = [trendline.key for trendline, _ in pruned]
        full = sorted(
            (
                (tl, solve_query(tl, compiled, run_solver=segment_tree_run_solver))
                for tl in lines
            ),
            key=lambda item: -item[1].score,
        )[:5]
        full_keys = [tl.key for tl, _ in full]
        overlap = len(set(pruned_keys) & set(full_keys))
        assert overlap >= 4  # sampling stage may perturb the boundary case

    def test_prunes_some_candidates(self):
        lines = self._collection(n=60)
        compiled = compile_query(q.concat(q.up(), q.down(), q.up()))
        report = PruningReport()
        prune_and_rank(lines, compiled, k=1, report=report)
        assert report.pruned + report.completed == len(
            [tl for tl in lines if tl.n_bins >= 6]
        )
