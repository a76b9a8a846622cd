"""Tests for push-down optimizations and the EXTRACT/GROUP pipeline (§5.3–5.4)."""

import numpy as np
import pytest

from repro.algebra import builder as q
from repro.data.filters import Filter
from repro.data.table import Table
from repro.data.visual_params import VisualParams
from repro.engine.chains import compile_query
from repro.engine.pipeline import generate_trendlines
from repro.engine.pushdown import eager_discard, plan_pushdown

from tests.conftest import make_trendline
from tests.oracles import generation as oracle
from tests.oracles.generation import has_required_data


def _table():
    """Three groups: a rising, a falling, and a short-domain one."""
    zs, xs, ys = [], [], []
    for key, values in [
        ("rise", np.linspace(0, 10, 30)),
        ("fall", np.linspace(10, 0, 30)),
    ]:
        for index, value in enumerate(values):
            zs.append(key)
            xs.append(float(index))
            ys.append(float(value))
    for index in range(5):  # "short" group only spans x in [0, 5)
        zs.append("short")
        xs.append(float(index))
        ys.append(float(index))
    return Table.from_arrays(z=np.array(zs, dtype=object), x=np.array(xs), y=np.array(ys))


PARAMS = VisualParams(z="z", x="x", y="y")


class TestPlanPushdown:
    def test_fuzzy_query_produces_empty_plan(self):
        plan = plan_pushdown(compile_query(q.concat(q.up(), q.down())))
        assert plan.required_spans == []
        assert plan.keep_span is None
        assert not plan.has_eager_checks

    def test_pinned_spans_collected(self):
        tree = q.concat(q.up(x_start=50, x_end=100), q.down(), q.up())
        plan = plan_pushdown(compile_query(tree))
        assert plan.required_spans == [(50, 100)]
        assert plan.has_eager_checks
        assert plan.keep_span is None  # not fully pinned

    def test_fully_pinned_keep_span(self):
        tree = q.concat(
            q.up(x_start=10, x_end=20), q.down(x_start=20, x_end=28)
        )
        plan = plan_pushdown(compile_query(tree))
        assert plan.keep_span == (10, 28)


class TestHasRequiredData:
    def test_accepts_overlap(self):
        assert has_required_data(np.arange(30.0), [(10, 20)])

    def test_rejects_gap(self):
        assert not has_required_data(np.arange(5.0), [(10, 20)])

    def test_multiple_spans(self):
        assert not has_required_data(np.arange(15.0), [(0, 5), (20, 25)])


class TestEagerDiscard:
    def test_discards_wrong_direction(self):
        tl = make_trendline(np.linspace(10, 0, 30), key="fall")
        compiled = compile_query(q.concat(q.up(x_start=0, x_end=15), q.down()))
        assert eager_discard(tl, compiled)

    def test_keeps_right_direction(self):
        tl = make_trendline(np.linspace(0, 10, 30), key="rise")
        compiled = compile_query(q.concat(q.up(x_start=0, x_end=15), q.down()))
        assert not eager_discard(tl, compiled)

    def test_fuzzy_queries_never_discarded(self):
        tl = make_trendline(np.linspace(10, 0, 30), key="fall")
        compiled = compile_query(q.concat(q.up(), q.down()))
        assert not eager_discard(tl, compiled)

    def test_one_viable_or_chain_keeps_viz(self):
        tl = make_trendline(np.linspace(10, 0, 30), key="fall")
        tree = q.or_(q.up(x_start=0, x_end=15), q.down(x_start=0, x_end=15))
        assert not eager_discard(tl, compile_query(tree))


def _kernel_streams(table, params, plan=None):
    """The block kernel's EXTRACT output: each trendline's raw points."""
    for trendline in generate_trendlines(table, params, plan=plan):
        yield trendline.key, trendline.x, trendline.y


class TestExtract:
    """EXTRACT's contract, stated on the per-group reference."""

    extract = staticmethod(oracle.extract)

    def test_groups_sorted_by_x(self):
        streams = dict((key, (x, y)) for key, x, y in self.extract(_table(), PARAMS))
        assert set(streams) == {"rise", "fall", "short"}
        x, y = streams["rise"]
        assert list(x) == sorted(x)

    def test_filters_applied(self):
        params = VisualParams(z="z", x="x", y="y", filters=(Filter("z", "!=", "short"),))
        keys = [key for key, _, _ in self.extract(_table(), params)]
        assert keys == ["rise", "fall"]

    def test_string_filters_parsed(self):
        params = VisualParams(z="z", x="x", y="y", filters=("y >= 5",))
        streams = dict((key, (x, y)) for key, x, y in self.extract(_table(), params))
        assert all((y >= 5).all() for _, y in streams.values())

    def test_duplicate_x_aggregated(self):
        table = Table.from_arrays(
            z=np.array(["a"] * 6, dtype=object),
            x=np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0]),
            y=np.array([1.0, 3.0, 4.0, 6.0, 8.0, 10.0]),
        )
        key, x, y = next(self.extract(table, PARAMS))
        assert list(x) == [0, 1, 2]
        assert list(y) == [2.0, 5.0, 9.0]

    def test_aggregate_choices(self):
        table = Table.from_arrays(
            z=np.array(["a"] * 4, dtype=object),
            x=np.array([0.0, 0.0, 1.0, 1.0]),
            y=np.array([1.0, 3.0, 4.0, 6.0]),
        )
        for aggregate, expected in [("sum", [4.0, 10.0]), ("max", [3.0, 6.0]), ("min", [1.0, 4.0])]:
            params = VisualParams(z="z", x="x", y="y", aggregate=aggregate)
            _, _, y = next(self.extract(table, params))
            assert list(y) == expected

    def test_pushdown_a_skips_groups(self):
        tree = q.concat(q.up(x_start=10, x_end=20), q.down())
        plan = plan_pushdown(compile_query(tree))
        keys = [key for key, _, _ in self.extract(_table(), PARAMS, plan)]
        assert "short" not in keys

    def test_unknown_column_raises(self):
        from repro.errors import DataError

        with pytest.raises(DataError):
            list(self.extract(_table(), VisualParams(z="nope", x="x", y="y")))


class TestKernelExtract(TestExtract):
    """The same contract, on what the block kernel extracts."""

    extract = staticmethod(_kernel_streams)


class TestGroup:
    def test_generates_trendlines(self):
        trendlines = generate_trendlines(_table(), PARAMS)
        assert {tl.key for tl in trendlines} == {"rise", "fall", "short"}

    def test_keep_span_restricts_bins(self):
        tree = q.concat(q.up(x_start=5, x_end=15), q.down(x_start=15, x_end=25))
        plan = plan_pushdown(compile_query(tree))
        trendlines = [
            tl for tl in generate_trendlines(_table(), PARAMS, plan=plan) if tl.key == "rise"
        ]
        assert trendlines[0].offset == 5
        assert trendlines[0].n_bins < 30
        assert len(trendlines[0].x) == 30  # raw kept for plotting

    def test_normalize_flag(self):
        trendlines = generate_trendlines(_table(), PARAMS, normalize_y=False)
        rise = next(tl for tl in trendlines if tl.key == "rise")
        assert rise.y_std == 1.0 and rise.y_mean == 0.0
