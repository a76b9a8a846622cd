"""Byte-identity of the matrix DP kernel against the loop oracle.

The matrix kernel (`kernel="matrix"`, the default) must reproduce the
retained loop kernel exactly — same scores, same placements, same
lowest-split-index tie-breaking — on every unit mix, layout and
degenerate input.  Equality below is ``==`` on floats, not approx: the
two kernels are required to be *bit* identical, which is what lets the
loop kernel serve as the matrix kernel's oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import builder as q
from repro.engine.chains import compile_query
from repro.engine.dynamic import (
    DEFAULT_KERNEL,
    KERNELS,
    MATRIX_TILE,
    fuzzy_run_solver,
    solve_query,
)
from repro.engine.executor import ShapeSearchEngine
from repro.engine.scoring import temporary_udp
from repro.engine.units import INFEASIBLE, RUNS_MEMO_KEY, LineUnit, SlopeUnit
from repro.errors import ExecutionError

from tests.conftest import make_trendline

LOOP = fuzzy_run_solver("loop")
MATRIX = fuzzy_run_solver("matrix")


def _random_trendline(seed, low=8, high=80):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(low, high))
    return make_trendline(rng.normal(0, 1, n).cumsum(), key="rand{}".format(seed))


def assert_kernels_identical(trendline, compiled):
    # kernel= threads the choice into nested/AND sub-solves too, so the
    # oracle comparison covers the whole solve, not just top-level runs.
    loop = solve_query(trendline, compiled, kernel="loop")
    matrix = solve_query(trendline, compiled, kernel="matrix")
    assert matrix.score == loop.score
    assert matrix.chain_index == loop.chain_index
    loop_placed = [
        (p.start, p.end, p.score, p.weight, p.slope) for p in loop.solution.placements
    ]
    matrix_placed = [
        (p.start, p.end, p.score, p.weight, p.slope) for p in matrix.solution.placements
    ]
    assert matrix_placed == loop_placed


# -- query corpus -----------------------------------------------------------

FUZZY_QUERIES = [
    q.concat(q.up(), q.down()),
    q.concat(q.up(), q.down(), q.up()),
    q.concat(q.flat(), q.up(), q.slope(45)),
    q.concat(q.up(sharp=True), q.down(gradual=True)),
    q.up() >> (q.flat() | (q.down() >> q.up())),
    q.concat(q.any_pattern(), q.down(), q.any_pattern()),
    q.concat(q.up(), q.down(), q.up(), q.down(), q.up()),
]

HYBRID_QUERIES = [
    q.concat(q.up(x_start=0, x_end=8), q.down(), q.up()),
    q.concat(q.up(), q.down(x_start=20, x_end=40), q.up()),
    q.concat(q.up(), q.down(x_start=30)),
    q.concat(q.up(x_end=10), q.down()),
]

MIXED_QUERIES = [
    # LineUnit rides the vectorized fast path; sketch/nested/quantifier/
    # position exercise the batched fallback inside the matrix kernel.
    q.concat(q.segment(y_start=0.0, y_end=10.0), q.down()),
    q.concat(q.up(), q.segment(y_end=5.0), q.up()),
    q.concat(q.sketch([(0, 0), (1, 2), (2, 0)]), q.up()),
    q.concat(q.up(), q.nested(q.concat(q.down(), q.up()))),
    q.concat(q.repeated(q.up(), low=1), q.down()),
    q.concat(q.up(), q.position(index=0, comparison=">")),
]


class TestKernelEquivalence:
    @pytest.mark.parametrize("query_index", range(len(FUZZY_QUERIES)))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fuzzy_chains(self, query_index, seed):
        compiled = compile_query(FUZZY_QUERIES[query_index])
        assert_kernels_identical(_random_trendline(seed), compiled)

    @pytest.mark.parametrize("query_index", range(len(HYBRID_QUERIES)))
    @pytest.mark.parametrize("seed", [3, 4])
    def test_pinned_and_hybrid_layouts(self, query_index, seed):
        compiled = compile_query(HYBRID_QUERIES[query_index])
        assert_kernels_identical(_random_trendline(seed, low=45, high=70), compiled)

    @pytest.mark.parametrize("query_index", range(len(MIXED_QUERIES)))
    @pytest.mark.parametrize("seed", [5, 6])
    def test_mixed_unit_chains(self, query_index, seed):
        compiled = compile_query(MIXED_QUERIES[query_index])
        assert_kernels_identical(_random_trendline(seed), compiled)

    def test_udp_fallback_units(self):
        with temporary_udp("dip", lambda values, slope: float(values.min())):
            compiled = compile_query(q.concat(q.up(), q.udp("dip")))
            assert_kernels_identical(_random_trendline(7), compiled)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25)
    def test_random_walks_property(self, seed):
        rng = np.random.default_rng(seed)
        trendline = _random_trendline(seed, low=8, high=60)
        pool = FUZZY_QUERIES + HYBRID_QUERIES + MIXED_QUERIES[:2]
        compiled = compile_query(pool[int(rng.integers(0, len(pool)))])
        assert_kernels_identical(trendline, compiled)

    def test_spans_multiple_tiles(self):
        """A run longer than MATRIX_TILE exercises the tile wavefront."""
        rng = np.random.default_rng(11)
        n = 2 * MATRIX_TILE + 57
        trendline = make_trendline(rng.normal(0, 1, n).cumsum(), key="tiles")
        compiled = compile_query(q.concat(q.up(), q.down(), q.up()))
        assert_kernels_identical(trendline, compiled)


class TestSharedAtanTransform:
    """The tile-shared arctan/transform path vs the per-layer path.

    ``SHARE_ATAN`` only changes *where* the Table 5 transform is
    computed (once per tile vs once per layer, with down folded onto up
    as an exact negation); both settings must match each other and the
    loop oracle bit for bit.
    """

    QUERIES = [
        q.concat(q.up(), q.down(), q.up()),
        q.concat(q.up(), q.flat(), q.down(), q.up()),
        q.concat(q.slope(30), q.down(), q.slope(-30)),
        q.concat(q.up(), q.opposite(q.up()), q.down()),
        q.concat(q.segment(y_start=0.0, y_end=10.0), q.down(), q.up()),
    ]

    @pytest.mark.parametrize("query_index", range(5))
    @pytest.mark.parametrize("seed", [0, 1, 12])
    def test_share_flag_is_bit_invisible(self, monkeypatch, query_index, seed):
        from repro.engine import dynamic as dynamic_module

        trendline = _random_trendline(seed, low=30, high=90)
        compiled = compile_query(self.QUERIES[query_index])
        results = {}
        for flag in (False, True):
            monkeypatch.setattr(dynamic_module, "SHARE_ATAN", flag)
            results[flag] = solve_query(trendline, compiled, kernel="matrix")
        assert results[True].score == results[False].score
        assert [
            (p.start, p.end, p.score, p.slope)
            for p in results[True].solution.placements
        ] == [
            (p.start, p.end, p.score, p.slope)
            for p in results[False].solution.placements
        ]
        # And both agree with the loop oracle.
        assert_kernels_identical(trendline, compiled)

    def test_multi_tile_shared_transform(self, monkeypatch):
        from repro.engine import dynamic as dynamic_module

        rng = np.random.default_rng(21)
        n = 2 * MATRIX_TILE + 31
        trendline = make_trendline(rng.normal(0, 1, n).cumsum(), key="atan-tiles")
        compiled = compile_query(q.concat(q.up(), q.down(), q.flat(), q.up()))
        monkeypatch.setattr(dynamic_module, "SHARE_ATAN", True)
        shared = solve_query(trendline, compiled, kernel="matrix")
        monkeypatch.setattr(dynamic_module, "SHARE_ATAN", False)
        private = solve_query(trendline, compiled, kernel="matrix")
        assert shared.score == private.score
        assert [
            (p.start, p.end, p.score) for p in shared.solution.placements
        ] == [(p.start, p.end, p.score) for p in private.solution.placements]

    def test_tile_transform_memo_is_not_mutated(self):
        """Consumers must never write into a memoized transform."""
        rng = np.random.default_rng(3)
        trendline = make_trendline(rng.normal(0, 1, 64).cumsum(), key="memo")
        atans = np.arctan(
            trendline.prefix.slope_matrix(np.arange(0, 40), np.arange(20, 60))
        )
        unit = SlopeUnit("up")
        memo = {}
        base = unit.tile_transform(atans, memo)
        snapshot = base.copy()
        unit.score_matrix_from_values(
            trendline, np.arange(0, 40), np.arange(20, 60), base
        )
        down = SlopeUnit("down")
        down_values = down.tile_transform(atans, memo)
        np.testing.assert_array_equal(base, snapshot)
        np.testing.assert_array_equal(down_values, -snapshot)
        assert len(memo) == 1  # down folded onto up


class TestTieBreaking:
    def test_constant_series_lowest_split_wins(self):
        """All splits tie on a constant series; both kernels must pick the
        same (lowest) split index, not merely the same score."""
        trendline = make_trendline(np.zeros(40), key="const")
        compiled = compile_query(q.concat(q.flat(), q.flat(), q.flat()))
        assert_kernels_identical(trendline, compiled)

    def test_symmetric_vee_ties(self):
        y = np.concatenate([np.linspace(10, 0, 20), np.linspace(0, 10, 20)])
        compiled = compile_query(q.concat(q.any_pattern(), q.any_pattern()))
        assert_kernels_identical(make_trendline(y, key="vee"), compiled)


class TestDegenerateInputs:
    """The single-bin/empty-segment cases PR 2 pinned down."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_tiny_trendlines(self, n):
        trendline = make_trendline(np.arange(float(n)), key="tiny{}".format(n))
        for tree in (q.concat(q.up(), q.down()), q.concat(q.up(), q.down(), q.up())):
            assert_kernels_identical(trendline, compile_query(tree))

    def test_infeasible_run_matches(self):
        trendline = make_trendline(np.arange(4.0))
        compiled = compile_query(q.concat(q.up(), q.down(), q.up()))
        for solver in (LOOP, MATRIX):
            assert solve_query(trendline, compiled, run_solver=solver).score == INFEASIBLE

    def test_pin_consuming_whole_range(self):
        """The fuzzy run between the pin and the end is empty."""
        trendline = make_trendline(np.linspace(0, 10, 30), key="pinned-all")
        compiled = compile_query(q.concat(q.up(x_start=0, x_end=29), q.down()))
        assert_kernels_identical(trendline, compiled)

    def test_constant_with_single_point_bins(self):
        trendline = make_trendline(np.array([5.0, 5.0]), key="two-const")
        assert_kernels_identical(trendline, compile_query(q.concat(q.up(), q.down())))


class TestScoreMatrixApi:
    """score_matrix/score_pairs agree with the scalar score everywhere."""

    def _grid(self, trendline):
        starts = np.arange(0, trendline.n_bins - 2)
        ends = np.arange(2, trendline.n_bins + 1)
        return starts, ends

    @pytest.mark.parametrize(
        "unit",
        [
            SlopeUnit("up"),
            SlopeUnit("down", negated=True),
            SlopeUnit("flat"),
            SlopeUnit("slope", theta=30.0),
            LineUnit(q.location(y_start=0.0, y_end=8.0)),
            LineUnit(q.location()),
        ],
    )
    def test_matrix_equals_vectorized_rows_and_scalar_grid(self, unit, noisy_up_down_up):
        """The matrix must be *bitwise* equal to the vectorized row/column
        paths the loop kernel consumes (that is the kernel-identity
        contract), and match the scalar score to float precision (the
        scalar SlopeUnit path deliberately uses math.atan, which can
        differ from np.arctan by one ulp)."""
        starts, ends = self._grid(noisy_up_down_up)
        matrix = unit.score_matrix(noisy_up_down_up, starts, ends)
        for i, l in enumerate(starts):
            row = unit.score_ends(noisy_up_down_up, int(l), ends)
            assert list(matrix[i]) == list(row)
        for j, r in enumerate(ends):
            column = unit.score_starts(noisy_up_down_up, starts, int(r))
            assert list(matrix[:, j]) == list(column)
        for i, l in enumerate(starts[::7]):
            for j, r in enumerate(ends[::7]):
                if r - l < 2:
                    continue
                scalar = unit.score(noisy_up_down_up, int(l), int(r))
                assert matrix[7 * i, 7 * j] == pytest.approx(scalar, abs=1e-12)

    def test_pairs_equal_vectorized(self, noisy_up_down_up):
        unit = SlopeUnit("up")
        starts = np.array([0, 3, 10, 20])
        ends = np.array([5, 9, 30, 55])
        pairs = unit.score_pairs(noisy_up_down_up, starts, ends)
        for value, l, r in zip(pairs, starts, ends):
            assert value == unit.score_ends(noisy_up_down_up, int(l), np.array([r]))[0]
            assert value == pytest.approx(
                unit.score(noisy_up_down_up, int(l), int(r)), abs=1e-12
            )

    def test_fallback_matrix_matches_loop_columns(self, noisy_up_down_up):
        """Non-vectorized units: the batched fallback must equal the
        per-column score_starts path the loop kernel uses."""
        unit = compile_query(q.concat(q.sketch([(0, 0), (1, 1)]), q.up())).chains[0].units[0].unit
        starts = np.array([0, 2, 4])
        ends = np.array([10, 12])
        matrix = unit.score_matrix(noisy_up_down_up, starts, ends)
        for j, r in enumerate(ends):
            column = unit.score_starts(noisy_up_down_up, starts, int(r))
            assert list(matrix[:, j]) == list(column)


class TestEngineKernelOption:
    def _trendlines(self, count=12):
        rng = np.random.default_rng(42)
        return [
            make_trendline(rng.normal(0, 1, 40).cumsum(), key="k{}".format(i))
            for i in range(count)
        ]

    def _signature(self, matches):
        return [
            (m.key, m.score, [(p.start, p.end, p.score) for p in m.placements])
            for m in matches
        ]

    def test_default_kernel_is_matrix(self):
        assert DEFAULT_KERNEL == "matrix"
        engine = ShapeSearchEngine(algorithm="dp")
        assert engine.kernel == "matrix"
        engine.close()

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ExecutionError):
            ShapeSearchEngine(kernel="turbo")
        with pytest.raises(ValueError):
            fuzzy_run_solver("turbo")
        assert set(KERNELS) == {"matrix", "loop"}

    def test_rank_identical_across_kernels(self):
        trendlines = self._trendlines()
        compiled = compile_query(q.concat(q.up(), q.down(), q.up()))
        with ShapeSearchEngine(algorithm="dp", kernel="loop") as loop_engine:
            expected = self._signature(loop_engine.rank(trendlines, compiled, k=5))
        with ShapeSearchEngine(algorithm="dp", kernel="matrix") as matrix_engine:
            assert self._signature(matrix_engine.rank(trendlines, compiled, k=5)) == expected

    @pytest.mark.parametrize("workers,floor", [(2, None), (3, 2)])
    def test_kernels_identical_any_worker_count_and_transport(
        self, workers, floor, shard_floor
    ):
        # The default floor keeps the collection one shard (the object
        # path, in the caller); floor 2 sends shards over shared memory.
        shard_floor(floor)
        trendlines = self._trendlines()
        compiled = compile_query(q.concat(q.up(), q.down(), q.up()))
        with ShapeSearchEngine(algorithm="dp", kernel="loop") as oracle:
            expected = self._signature(oracle.rank(trendlines, compiled, k=5))
        with ShapeSearchEngine(algorithm="dp", kernel="matrix", workers=workers) as engine:
            assert self._signature(engine.rank(trendlines, compiled, k=5)) == expected


class TestQuantifierRunsMemo:
    def test_memo_populated_and_scores_unchanged(self):
        rng = np.random.default_rng(9)
        trendline = make_trendline(
            np.sin(np.linspace(0, 6 * np.pi, 80)) + rng.normal(0, 0.1, 80), key="waves"
        )
        compiled = compile_query(q.concat(q.repeated(q.up(), low=2), q.down()))
        unit = compiled.chains[0].units[0].unit
        bare = unit.score(trendline, 0, 60, None)
        context = {}
        memoized = unit.score(trendline, 0, 60, context)
        assert memoized == bare
        assert RUNS_MEMO_KEY in context and len(context[RUNS_MEMO_KEY]) == 1
        # A repeat with the same context hits the memo (same object out).
        again = unit.score(trendline, 0, 60, context)
        assert again == bare
        assert len(context[RUNS_MEMO_KEY]) == 1

    def test_solve_query_threads_memo_through(self):
        trendline = make_trendline(
            np.sin(np.linspace(0, 4 * np.pi, 60)), key="memo-solve"
        )
        compiled = compile_query(q.concat(q.repeated(q.up(), low=1), q.down()))
        assert_kernels_identical(trendline, compiled)

    def test_memo_is_bounded(self, monkeypatch):
        """A mid-chain quantifier touches O(n²) ranges; the memo must not
        grow without bound — FIFO eviction keeps it capped while recent
        (re-scorable) ranges stay resident."""
        import repro.engine.units as units_module

        monkeypatch.setattr(units_module, "RUNS_MEMO_CAP", 8)
        trendline = make_trendline(
            np.sin(np.linspace(0, 4 * np.pi, 60)), key="memo-cap"
        )
        compiled = compile_query(q.concat(q.repeated(q.up(), low=1), q.down()))
        unit = compiled.chains[0].units[0].unit
        context = {}
        expected = {}
        for l in range(0, 20):
            expected[l] = unit.score(trendline, l, l + 30, None)
            assert unit.score(trendline, l, l + 30, context) == expected[l]
        memo = context[RUNS_MEMO_KEY]
        assert len(memo) <= 8
        # Evicted entries recompute correctly (values, not cache, decide).
        for l in range(0, 20):
            assert unit.score(trendline, l, l + 30, context) == expected[l]


class TestKernelThreading:
    def test_kernel_choice_reaches_nested_solves(self, monkeypatch):
        """kernel="loop" must drive nested sub-queries' fuzzy runs too,
        not just the top-level chains."""
        import repro.engine.dynamic as dynamic

        counts = {"matrix": 0, "loop": 0}
        real_matrix = dynamic._solve_fuzzy_run_matrix
        real_loop = dynamic._solve_fuzzy_run_loop

        def spy_matrix(*args):
            counts["matrix"] += 1
            return real_matrix(*args)

        def spy_loop(*args):
            counts["loop"] += 1
            return real_loop(*args)

        monkeypatch.setattr(dynamic, "_solve_fuzzy_run_matrix", spy_matrix)
        monkeypatch.setattr(dynamic, "_solve_fuzzy_run_loop", spy_loop)
        trendline = _random_trendline(13, low=40, high=41)
        compiled = compile_query(
            q.concat(q.up(), q.nested(q.concat(q.down(), q.up())))
        )
        solve_query(trendline, compiled, kernel="loop")
        assert counts["loop"] > 1, "nested sub-solves did not use the loop kernel"
        assert counts["matrix"] == 0
        counts["loop"] = counts["matrix"] = 0
        solve_query(trendline, compiled, kernel="matrix")
        assert counts["matrix"] > 1
        assert counts["loop"] == 0

    def test_default_without_kernel_is_matrix(self, monkeypatch):
        import repro.engine.dynamic as dynamic

        counts = {"matrix": 0}
        real_matrix = dynamic._solve_fuzzy_run_matrix

        def spy_matrix(*args):
            counts["matrix"] += 1
            return real_matrix(*args)

        monkeypatch.setattr(dynamic, "_solve_fuzzy_run_matrix", spy_matrix)
        trendline = _random_trendline(14)
        solve_query(trendline, compile_query(q.concat(q.up(), q.down())))
        assert counts["matrix"] == 1

    def test_pruning_stage1_honors_kernel(self, monkeypatch):
        import repro.engine.dynamic as dynamic
        from benchmarks.paper.pruning import prune_and_rank

        counts = {"loop": 0, "matrix": 0}
        real_loop = dynamic._solve_fuzzy_run_loop
        real_matrix = dynamic._solve_fuzzy_run_matrix

        def spy_loop(*args):
            counts["loop"] += 1
            return real_loop(*args)

        def spy_matrix(*args):
            counts["matrix"] += 1
            return real_matrix(*args)

        monkeypatch.setattr(dynamic, "_solve_fuzzy_run_loop", spy_loop)
        monkeypatch.setattr(dynamic, "_solve_fuzzy_run_matrix", spy_matrix)
        trendlines = [_random_trendline(seed, low=30, high=50) for seed in range(6)]
        compiled = compile_query(q.concat(q.up(), q.down()))
        prune_and_rank(trendlines, compiled, k=3, kernel="loop")
        assert counts["loop"] > 0, "stage-1 sampling ignored kernel='loop'"
        assert counts["matrix"] == 0


class TestLinePrefixPickle:
    def test_cached_line_prefix_excluded_from_pickles(self):
        import pickle

        trendline = make_trendline(np.linspace(0, 5, 30), key="pkl")
        unit = LineUnit(q.location(y_start=0.0, y_end=5.0))
        before = unit.score(trendline, 0, 30)
        assert trendline._line_prefix is not None  # populated by the score
        clone = pickle.loads(pickle.dumps(trendline))
        assert clone._line_prefix is None  # rebuilt lazily worker-side
        assert unit.score(clone, 0, 30) == before
