"""Tests for the top-k execution driver (Problem 1)."""

import numpy as np
import pytest

from repro.algebra import builder as q
from repro.data.table import Table
from repro.data.visual_params import VisualParams
from repro.engine.chains import compile_query
from repro.engine.executor import ALGORITHMS, ShapeSearchEngine
from repro.errors import ExecutionError

from tests.conftest import make_trendline
from tests.oracles.exhaustive import exhaustive_solve_query


def _collection():
    rng = np.random.default_rng(1)
    lines = []
    shapes = {
        "udu0": np.concatenate([np.linspace(0, 8, 20), np.linspace(8, 1, 20), np.linspace(1, 9, 20)]),
        "udu1": np.concatenate([np.linspace(2, 9, 20), np.linspace(9, 0, 20), np.linspace(0, 7, 20)]),
        "rise": np.linspace(0, 10, 60),
        "fall": np.linspace(10, 0, 60),
        "flat": np.full(60, 4.0) + rng.normal(0, 0.05, 60),
    }
    for key, values in shapes.items():
        lines.append(make_trendline(values + rng.normal(0, 0.1, 60), key=key))
    return lines


QUERY = q.concat(q.up(), q.down(), q.up())


class TestRank:
    @pytest.mark.parametrize("algorithm", ["dp", "segment-tree", "greedy"])
    def test_planted_shapes_rank_first(self, algorithm):
        engine = ShapeSearchEngine(algorithm=algorithm)
        matches = engine.rank(_collection(), QUERY, k=2)
        assert {match.key for match in matches} == {"udu0", "udu1"}

    def test_k_limits_results(self):
        engine = ShapeSearchEngine()
        assert len(engine.rank(_collection(), QUERY, k=3)) == 3

    def test_scores_sorted_descending(self):
        engine = ShapeSearchEngine()
        matches = engine.rank(_collection(), QUERY, k=5)
        scores = [match.score for match in matches]
        assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("algorithm", ["quantum", "exhaustive"])
    def test_unknown_algorithm_rejected(self, algorithm):
        # "exhaustive" is the brute-force oracle of tests/oracles/exhaustive.py,
        # not an engine algorithm.
        with pytest.raises(ExecutionError):
            ShapeSearchEngine(algorithm=algorithm)

    def test_compiled_query_accepted(self):
        engine = ShapeSearchEngine()
        matches = engine.rank(_collection(), compile_query(QUERY), k=1)
        assert matches[0].key in ("udu0", "udu1")

    def test_bad_query_type_rejected(self):
        engine = ShapeSearchEngine()
        with pytest.raises(ExecutionError):
            engine.rank(_collection(), "not-an-ast", k=1)

    def test_stats_populated(self):
        stats = ShapeSearchEngine().rank(_collection(), QUERY, k=2).stats
        assert stats.candidates == 5
        assert stats.scored == 5

    def test_exhaustive_algorithm_small_input(self):
        """The DP engine ranks like the brute-force oracle: same keys in the
        same order (score desc, position asc), same scores."""
        rng = np.random.default_rng(5)
        small = [make_trendline(rng.normal(0, 1, 12).cumsum(), key=i) for i in range(3)]
        compiled = compile_query(QUERY)
        oracle = sorted(
            ((exhaustive_solve_query(t, compiled).score, position, t.key)
             for position, t in enumerate(small)),
            key=lambda row: (-row[0], row[1]),
        )
        dp = ShapeSearchEngine(algorithm="dp").rank(small, QUERY, k=3)
        assert [key for _score, _position, key in oracle] == [m.key for m in dp]
        for (score, _position, _key), b in zip(oracle, dp):
            assert score == pytest.approx(b.score, abs=1e-9)


class TestExecute:
    def _table(self):
        zs, xs, ys = [], [], []
        rng = np.random.default_rng(2)
        shapes = {
            "a": np.concatenate([np.linspace(0, 5, 15), np.linspace(5, 0, 15)]),
            "b": np.linspace(8, 0, 30),  # falling: eager-discarded by pinned 'up'
            "c": rng.normal(0, 1, 30).cumsum(),
        }
        for key, values in shapes.items():
            for index, value in enumerate(values):
                zs.append(key)
                xs.append(float(index))
                ys.append(float(value))
        return Table.from_arrays(z=np.array(zs, dtype=object), x=np.array(xs), y=np.array(ys))

    def test_end_to_end(self):
        engine = ShapeSearchEngine()
        params = VisualParams(z="z", x="x", y="y")
        matches = engine.run(self._table(), params, q.concat(q.up(), q.down()), k=1)
        assert matches[0].key == "a"

    def test_y_constrained_query_skips_normalization(self):
        engine = ShapeSearchEngine()
        params = VisualParams(z="z", x="x", y="y")
        tree = q.segment(pattern=None, y_start=0.0, y_end=5.0)
        matches = engine.run(self._table(), params, tree, k=3)
        assert matches  # executes without error, raw-y space
        assert matches[0].trendline.y_std == 1.0

    def test_eager_discard_stats(self):
        # Floor-aware eager discard: with k=1 the heap fills after the
        # first candidate and the contradicted falling trendline "b"
        # (pinned 'up' scores negative) can be skipped without solving.
        engine = ShapeSearchEngine()
        params = VisualParams(z="z", x="x", y="y")
        tree = q.concat(q.up(x_start=0, x_end=14), q.down())
        result = engine.run(self._table(), params, tree, k=1)
        assert result.stats.eager_discarded >= 1
        assert (
            result.stats.scored + result.stats.eager_discarded
            == result.stats.candidates
        )

    def test_pushdown_toggle(self):
        plain = ShapeSearchEngine(enable_pushdown=False)
        params = VisualParams(z="z", x="x", y="y")
        tree = q.concat(q.up(x_start=0, x_end=14), q.down())
        matches = plain.run(self._table(), params, tree, k=3)
        assert matches.stats.eager_discarded == 0
        assert matches


class TestAlgorithmsConstant:
    def test_algorithm_list(self):
        assert set(ALGORITHMS) == {"dp", "segment-tree", "greedy"}


class TestStatsIsolation:
    """Stats are per-call: concurrent ranks can't see each other's counters."""

    def test_rank_returns_private_stats(self):
        engine = ShapeSearchEngine()
        collection = _collection()
        stats_a = engine.rank(collection, QUERY, k=2).stats
        stats_b = engine.rank(collection[:3], QUERY, k=2).stats
        assert stats_a.candidates == 5 and stats_a.scored == 5
        assert stats_b.candidates == 3 and stats_b.scored == 3
        # The first call's stats object was not mutated by the second.
        assert stats_a is not stats_b
        assert stats_a.scored == 5

    def test_concurrent_ranks_do_not_share_counters(self):
        from concurrent.futures import ThreadPoolExecutor

        engine = ShapeSearchEngine()
        small = _collection()[:2]
        large = _collection()

        def run(trendlines):
            stats = engine.rank(trendlines, QUERY, k=2).stats
            return len(trendlines), stats

        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(run, small if index % 2 == 0 else large)
                for index in range(12)
            ]
            for future in futures:
                expected, stats = future.result()
                assert stats.candidates == expected
                assert stats.scored == expected
