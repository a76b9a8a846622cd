"""Deprecated shims: warning discipline and seed-era result equivalence.

The old one-shot entry points (``ShapeSearch.search``/``search_many``,
``ShapeSearchEngine.execute``/``execute_many``) survive as thin shims:
they emit :class:`ShapeSearchDeprecationWarning` and return ResultSets
whose order, scores and tie-breaks are byte-identical to the seed-era
list results.  The CI ``deprecations`` job runs the whole suite with
this category escalated to an error, so these are the only tests allowed
to touch the shims — and they must assert the warning explicitly.
"""

import warnings

import numpy as np
import pytest

from repro import ResultSet, ShapeSearch, ShapeSearchDeprecationWarning
from repro.data.table import Table
from repro.data.visual_params import VisualParams
from repro.engine.executor import ShapeSearchEngine
from repro.parser import parse

PARAMS = VisualParams(z="z", x="x", y="y")


def _table(groups=8, length=25, seed=5):
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
    return [
        (
            m.key,
            m.score,
            tuple((p.start, p.end, p.score) for p in m.placements),
        )
        for m in matches
    ]


class TestWarningDiscipline:
    def test_category_is_a_deprecation_warning(self):
        assert issubclass(ShapeSearchDeprecationWarning, DeprecationWarning)

    def test_session_search_warns(self):
        session = ShapeSearch(_table())
        with pytest.warns(ShapeSearchDeprecationWarning, match="prepare"):
            session.search("[p=up]", z="z", x="x", y="y", k=1)

    def test_session_search_many_warns(self):
        session = ShapeSearch(_table())
        with pytest.warns(ShapeSearchDeprecationWarning, match="submit_many"):
            session.search_many(["[p=up]"], z="z", x="x", y="y", k=1)

    def test_engine_execute_warns(self):
        with pytest.warns(ShapeSearchDeprecationWarning, match="run"):
            ShapeSearchEngine().execute(_table(), PARAMS, parse("[p=up]"), k=1)

    def test_engine_execute_many_warns(self):
        with pytest.warns(ShapeSearchDeprecationWarning, match="run_many"):
            ShapeSearchEngine().execute_many(
                _table(), PARAMS, [parse("[p=up]")], k=1
            )

    def test_warning_escalates_under_error_filter(self):
        # What the CI deprecations job enforces suite-wide.
        session = ShapeSearch(_table())
        with warnings.catch_warnings():
            warnings.simplefilter("error", ShapeSearchDeprecationWarning)
            with pytest.raises(ShapeSearchDeprecationWarning):
                session.search("[p=up]", z="z", x="x", y="y", k=1)

    def test_new_api_does_not_warn(self):
        session = ShapeSearch(_table())
        with warnings.catch_warnings():
            warnings.simplefilter("error", ShapeSearchDeprecationWarning)
            session.prepare("[p=up]", z="z", x="x", y="y").run(k=1)
            session.engine.run(session.table, PARAMS, parse("[p=up]"), k=1)
            session.engine.run_many(session.table, PARAMS, [parse("[p=up]")], k=1)
            session.search_sketch(
                [(float(i), float(i)) for i in range(20)], z="z", x="x", y="y", k=1
            )


class TestShimEquivalence:
    """Shim results are byte-identical to the non-deprecated paths."""

    @pytest.mark.parametrize("query", ["[p=up][p=down]", "[p=up,m={2,}]"])
    def test_search_matches_prepared_run(self, query):
        session = ShapeSearch(_table())
        with pytest.warns(ShapeSearchDeprecationWarning):
            old = session.search(query, z="z", x="x", y="y", k=4)
        new = session.prepare(query, z="z", x="x", y="y").run(k=4)
        assert isinstance(old, ResultSet)
        assert _sig(old) == _sig(new)

    def test_search_many_matches_run_many(self):
        session = ShapeSearch(_table())
        queries = ["[p=up][p=down]", "[p=down][p=up]"]
        with pytest.warns(ShapeSearchDeprecationWarning):
            old = session.search_many(queries, z="z", x="x", y="y", k=3)
        nodes = [parse(text) for text in queries]
        new = session.engine.run_many(session.table, PARAMS, nodes, k=3)
        assert [_sig(result) for result in old] == [_sig(result) for result in new]

    @pytest.mark.parametrize("workers,backend", [(1, "thread"), (3, "thread"), (2, "process")])
    def test_execute_matches_run_across_backends(self, workers, backend):
        # Two shims at once: the ignored ShapeSearch(backend=) keyword and
        # execute().  Whatever backend the session names, its engine is
        # the workers= one, and execute() equals run() on it.
        table = _table()
        query = parse("[p=up][p=down]")
        with pytest.warns(ShapeSearchDeprecationWarning, match="backend"):
            session = ShapeSearch(table, workers=workers, backend=backend)
        with session, ShapeSearchEngine(workers=workers) as plain:
            assert session.engine.workers == workers
            with pytest.warns(ShapeSearchDeprecationWarning):
                old = session.engine.execute(table, PARAMS, query, k=4)
            new = plain.run(table, PARAMS, query, k=4)
            assert _sig(old) == _sig(new)

    def test_execute_result_is_sequence_compatible(self):
        # The seed-era contract: callers treated the return as List[Match].
        engine = ShapeSearchEngine()
        with pytest.warns(ShapeSearchDeprecationWarning):
            result = engine.execute(_table(), PARAMS, parse("[p=up]"), k=3)
        as_list = list(result)
        assert result == as_list
        assert len(result) == 3
        assert result[0].key == as_list[0].key
        assert [m.key for m in result] == [m.key for m in as_list]

    def test_shims_still_update_last_stats(self):
        # Seed-era code inspected engine.last_stats after execute().
        engine = ShapeSearchEngine()
        with pytest.warns(ShapeSearchDeprecationWarning):
            result = engine.execute(_table(), PARAMS, parse("[p=up]"), k=2)
        assert engine.last_stats is result.stats
        session = ShapeSearch(_table())
        with pytest.warns(ShapeSearchDeprecationWarning):
            result = session.search("[p=up]", z="z", x="x", y="y", k=2)
        assert session.engine.last_stats is result.stats

    def test_tie_breaks_preserved(self):
        # Constant series tie on score; the shim must break ties exactly
        # like the new path (score desc, then str(key) asc presentation).
        zs, xs, ys = [], [], []
        for key in ("b", "a", "c"):
            for i in range(10):
                zs.append(key)
                xs.append(float(i))
                ys.append(float(i))
        table = Table.from_arrays(
            z=np.array(zs, dtype=object), x=np.array(xs), y=np.array(ys)
        )
        engine = ShapeSearchEngine()
        with pytest.warns(ShapeSearchDeprecationWarning):
            old = engine.execute(table, PARAMS, parse("[p=up]"), k=3)
        new = engine.run(table, PARAMS, parse("[p=up]"), k=3)
        assert [m.key for m in old] == [m.key for m in new] == ["a", "b", "c"]
