"""The prepared-query session API: PreparedSearch, ResultSet, front-end parity.

Covers the serving-era redesign: ``session.prepare`` binds parse +
compile + visual context once, ``run`` returns a list-compatible
:class:`ResultSet` carrying per-call stats and the rendered plan, the
sketch front-end routes through the same prepared path as text queries,
and ``from_arrays`` separates engine options from column arrays.
"""

import numpy as np
import pytest

from repro import PreparedSearch, ResultSet, ShapeSearch
from repro.data.table import Table
from repro.engine.chains import CompiledQuery
from repro.engine.executor import ExecutionStats, ShapeSearchEngine
from repro.render import render_matches, render_results


def _table(groups=6, length=30, seed=0):
    rng = np.random.default_rng(seed)
    zs, xs, ys = [], [], []
    for g in range(groups):
        values = rng.normal(0, 1, length).cumsum()
        for i, v in enumerate(values):
            zs.append("g{:02d}".format(g))
            xs.append(float(i))
            ys.append(float(v))
    return Table.from_arrays(
        z=np.array(zs, dtype=object), x=np.array(xs), y=np.array(ys)
    )


def _sig(matches):
    return [(m.key, m.score) for m in matches]


class TestPreparedSearch:
    def test_prepare_binds_compiled_query_and_params(self):
        session = ShapeSearch(_table())
        prepared = session.prepare("[p=up][p=down]", z="z", x="x", y="y")
        assert isinstance(prepared, PreparedSearch)
        assert isinstance(prepared.compiled, CompiledQuery)
        assert (prepared.params.z, prepared.params.x, prepared.params.y) == (
            "z", "x", "y"
        )

    def test_run_matches_engine_run(self):
        session = ShapeSearch(_table())
        prepared = session.prepare("[p=up][p=down]", z="z", x="x", y="y")
        direct = session.engine.run(
            session.table, prepared.params, prepared.compiled, k=3
        )
        assert _sig(prepared.run(k=3)) == _sig(direct)

    def test_repeat_runs_reuse_the_bound_compile(self):
        session = ShapeSearch(_table(), cache=True)
        prepared = session.prepare("[p=up][p=down]", z="z", x="x", y="y")
        # The bound CompiledQuery short-circuits _compile entirely: no
        # plan-cache lookup happens (prepare did the single lookup).
        lookups_before = session.engine.cache.plans.stats.lookups
        first, second = prepared.run(k=3), prepared.run(k=3)
        assert session.engine.cache.plans.stats.lookups == lookups_before
        assert _sig(first) == _sig(second)

    def test_prepare_same_text_hits_plan_cache(self):
        session = ShapeSearch(_table(), cache=True)
        session.prepare("[p=up][p=down]", z="z", x="x", y="y")
        hits_before = session.engine.cache.plans.stats.hits
        session.prepare("[p=up][p=down]", z="z", x="x", y="y")
        assert session.engine.cache.plans.stats.hits == hits_before + 1

    def test_explain_matches_session_explain(self, rule_tagger):
        session = ShapeSearch(_table(), tagger=rule_tagger)
        prepared = session.prepare("rising then falling", z="z", x="x", y="y")
        assert prepared.explain() == session.explain("rising then falling")
        assert prepared.explain() == "[p=up][p=down]"

    def test_explain_plan_is_planning_only_and_matches_run(self):
        session = ShapeSearch(_table())
        prepared = session.prepare("[p=up]", z="z", x="x", y="y")
        text = prepared.explain_plan(k=2)
        assert "ScanTable" in text and "MergeTopK" in text
        assert prepared.run(k=2).plan == text

    def test_prepared_is_reusable_across_workers_override(self):
        with ShapeSearch(_table(groups=8), workers=2) as session:
            prepared = session.prepare("[p=up][p=down]", z="z", x="x", y="y")
            assert _sig(prepared.run(k=4, workers=1)) == _sig(
                prepared.run(k=4, workers=3)
            )

    def test_filters_aggregate_bin_width_bound_at_prepare(self):
        session = ShapeSearch(_table())
        prepared = session.prepare(
            "[p=up]", z="z", x="x", y="y", filters=("z != g00",), bin_width=5.0
        )
        results = prepared.run(k=10)
        assert all(m.key != "g00" for m in results)
        assert prepared.params.bin_width == 5.0


class TestResultSet:
    def _results(self, k=4):
        session = ShapeSearch(_table())
        return session.prepare("[p=up][p=down]", z="z", x="x", y="y").run(k=k)

    def test_sequence_protocol(self):
        results = self._results()
        assert len(results) > 0
        assert results[0] is list(results)[0]
        assert results[0] in results
        assert isinstance(results[:2], ResultSet)
        assert len(results[:2]) == 2
        assert results[-1] is list(results)[-1]

    def test_equality_with_plain_lists(self):
        results = self._results()
        assert results == list(results)
        assert list(results) == list(iter(results))
        assert results == results[:]
        assert not (results == list(results)[:-1])
        assert results != list(results)[:-1]

    def test_top_carries_stats_and_plan(self):
        results = self._results(k=4)
        top = results.top(2)
        assert isinstance(top, ResultSet)
        assert len(top) == 2
        assert top.stats is results.stats
        assert top.plan == results.plan
        assert _sig(top) == _sig(list(results)[:2])

    def test_stats_are_per_call_and_attached(self):
        session = ShapeSearch(_table())
        prepared = session.prepare("[p=up]", z="z", x="x", y="y")
        first, second = prepared.run(k=2), prepared.run(k=2)
        assert isinstance(first.stats, ExecutionStats)
        assert first.stats is not second.stats
        assert first.stats.candidates == 6

    def test_run_does_not_touch_last_stats(self):
        engine = ShapeSearchEngine()
        sentinel = engine.last_stats
        ShapeSearch(_table(), engine=engine).prepare(
            "[p=up]", z="z", x="x", y="y"
        ).run(k=2)
        assert engine.last_stats is sentinel

    def test_to_records(self):
        results = self._results(k=2)
        records = results.to_records()
        assert len(records) == 2
        assert set(records[0]) == {"key", "score", "placements"}
        assert records[0]["key"] == results[0].key
        assert records[0]["score"] == results[0].score
        seg_index, start, end, score, slope = records[0]["placements"][0]
        assert end > start

    def test_render_matches_accepts_result_set(self):
        results = self._results(k=2)
        assert results.render() == render_matches(list(results))
        footer = render_results(results)
        assert footer.startswith(results.render())
        assert "scored {} of {}".format(
            results.stats.scored, results.stats.candidates
        ) in footer
        # Plain lists render without the stats footer.
        assert render_results(list(results)) == render_matches(list(results))

    def test_plan_is_rendered_text_not_live_operators(self):
        # The plan rides along as text: holding the operator chain would
        # pin the scanned table / candidate collection for the
        # ResultSet's lifetime.
        results = self._results()
        assert isinstance(results._plan, str)
        assert isinstance(results.plan, str) and "Score" in results.plan

    def test_repr_is_compact(self):
        results = self._results(k=4)
        assert repr(results).startswith("ResultSet([")
        assert "n=4" in repr(results)


class TestRunManyFailFast:
    def test_invalid_query_rejects_batch_before_any_scoring(self, monkeypatch):
        import repro.engine.executor as executor_module
        from repro.errors import ExecutionError
        from repro.parser import parse

        calls = []
        real = executor_module.generate_trendlines

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(executor_module, "generate_trendlines", counting)
        session = ShapeSearch(_table())
        with pytest.raises(ExecutionError):
            session.engine.run_many(
                session.table,
                session.prepare("[p=up]", z="z", x="x", y="y").params,
                [parse("[p=up]"), "not-an-ast"],
                k=2,
            )
        # The whole batch was rejected at compile time: the valid first
        # query never generated or scored anything.
        assert calls == []


class TestFromArrays:
    def _arrays(self):
        return dict(
            z=np.array(["a"] * 10 + ["b"] * 10, dtype=object),
            x=np.array([float(i % 10) for i in range(20)]),
            y=np.arange(20, dtype=float),
        )

    def test_engine_options_are_not_swallowed_as_columns(self):
        session = ShapeSearch.from_arrays(
            workers=2, cache=True, kernel="loop", **self._arrays()
        )
        try:
            assert list(session.table.column_names) == ["z", "x", "y"]
            assert session.engine.workers == 2
            assert session.engine.cache is not None
            assert session.engine.kernel == "loop"
        finally:
            session.close()

    def test_explicit_engine_option(self):
        engine = ShapeSearchEngine(algorithm="dp")
        session = ShapeSearch.from_arrays(engine=engine, **self._arrays())
        assert session.engine is engine

    def test_array_valued_option_kwarg_rejected_loudly(self):
        from repro.errors import DataError

        arrays = self._arrays()
        with pytest.raises(DataError, match="columns= mapping"):
            ShapeSearch.from_arrays(
                z=arrays["z"], x=arrays["x"], cache=arrays["y"]
            )

    def test_colliding_column_names_via_columns_mapping(self):
        arrays = self._arrays()
        session = ShapeSearch.from_arrays(
            columns={"workers": arrays["y"]}, workers=2, z=arrays["z"], x=arrays["x"]
        )
        try:
            assert set(session.table.column_names) == {"z", "x", "workers"}
            assert session.engine.workers == 2
        finally:
            session.close()

    def test_plain_columns_still_work(self):
        session = ShapeSearch.from_arrays(**self._arrays())
        results = session.prepare("[p=up]", z="z", x="x", y="y").run(k=1)
        assert results[0].key == "a"


class TestSketchParity:
    """search_sketch routes through PreparedSearch like the other front-ends."""

    def _dup_x_table(self):
        # Duplicate x values per group make the aggregate observable.
        zs, xs, ys = [], [], []
        for key, offset in (("low", 0.0), ("high", 5.0)):
            for i in range(20):
                for dup, bump in ((0, 0.0), (1, 10.0)):
                    zs.append(key)
                    xs.append(float(i))
                    ys.append(offset + i + bump * dup)
        return Table.from_arrays(
            z=np.array(zs, dtype=object), x=np.array(xs), y=np.array(ys)
        )

    def _pixels(self):
        return [(float(i), float(i)) for i in range(30)]

    def test_returns_result_set_equal_to_prepared_run(self):
        from repro.sketch.parser import parse_sketch

        session = ShapeSearch(_table())
        results = session.search_sketch(self._pixels(), z="z", x="x", y="y", k=3)
        assert isinstance(results, ResultSet)
        node = parse_sketch(self._pixels())
        prepared = session.prepare(node, z="z", x="x", y="y")
        assert _sig(results) == _sig(prepared.run(k=3))
        assert results.plan == prepared.explain_plan(k=3)

    def test_aggregate_is_honored(self):
        session = ShapeSearch(self._dup_x_table())
        mean = session.search_sketch(
            self._pixels(), z="z", x="x", y="y", k=2, aggregate="mean"
        )
        minimum = session.search_sketch(
            self._pixels(), z="z", x="x", y="y", k=2, aggregate="min"
        )
        # Different duplicate-x aggregation produces different trendlines.
        assert mean[0].trendline.bin_y[0] != minimum[0].trendline.bin_y[0]

    def test_bin_width_is_honored(self):
        session = ShapeSearch(_table())
        coarse = session.search_sketch(
            self._pixels(), z="z", x="x", y="y", k=1, bin_width=10.0
        )
        fine = session.search_sketch(self._pixels(), z="z", x="x", y="y", k=1)
        assert coarse[0].trendline.n_bins < fine[0].trendline.n_bins

    def test_workers_override_matches_sequential(self):
        with ShapeSearch(_table(groups=8), workers=2) as session:
            parallel = session.search_sketch(
                self._pixels(), z="z", x="x", y="y", k=4, workers=3
            )
            sequential = session.search_sketch(
                self._pixels(), z="z", x="x", y="y", k=4, workers=1
            )
            assert _sig(parallel) == _sig(sequential)
