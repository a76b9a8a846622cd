"""Tests for the DTW / Euclidean / VQS baselines (§7.3, §9)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algebra import builder as q
from repro.engine.chains import compile_query
from repro.errors import ExecutionError

from benchmarks.paper.baselines.dtw import (
    chain_prototype,
    dtw_distance,
    dtw_query_distance,
    query_prototypes,
    rank_by_dtw,
)
from benchmarks.paper.baselines.euclidean import euclidean_distance, rank_by_euclidean
from benchmarks.paper.baselines.vqs import VisualQuerySystem, smooth


series = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=4, max_size=24
)


class TestDtw:
    def test_identity_is_zero(self):
        values = np.sin(np.linspace(0, 5, 30))
        assert dtw_distance(values, values) == pytest.approx(0.0, abs=1e-9)

    @given(series, series)
    def test_symmetry(self, a, b):
        forward = dtw_distance(np.array(a), np.array(b))
        backward = dtw_distance(np.array(b), np.array(a))
        assert forward == pytest.approx(backward, rel=1e-6, abs=1e-6)

    @given(series, series)
    def test_non_negative(self, a, b):
        assert dtw_distance(np.array(a), np.array(b)) >= 0

    def test_band_never_below_unbanded(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(0, 1, 40), rng.normal(0, 1, 40)
        unbanded = dtw_distance(a, b)
        banded = dtw_distance(a, b, band=3)
        assert banded >= unbanded - 1e-9

    def test_phase_shift_tolerated_vs_euclidean(self):
        """DTW's raison d'être: aligned shapes beat point-wise comparison."""
        t = np.linspace(0, 4 * np.pi, 80)
        a = np.sin(t)
        b = np.sin(t + 0.6)
        assert dtw_distance(a, b) < euclidean_distance(a, b) * np.sqrt(len(a))

    def test_different_lengths_same_shape_stay_close(self):
        a = np.linspace(0, 1, 30)
        b = np.linspace(0, 1, 45)
        opposite = np.linspace(1, 0, 45)
        assert dtw_distance(a, b) < 0.3 * dtw_distance(a, opposite)

    def test_empty_series(self):
        assert dtw_distance(np.array([]), np.array([1.0])) == np.inf


class TestPrototypes:
    def test_up_down_shape(self):
        compiled = compile_query(q.concat(q.up(), q.down()))
        prototype = chain_prototype(compiled.chains[0], 40)
        assert len(prototype) == 40
        peak = int(np.argmax(prototype))
        assert 15 <= peak <= 25

    def test_one_prototype_per_chain(self):
        compiled = compile_query(q.up() >> (q.flat() | q.down()))
        assert len(query_prototypes(compiled, 30)) == 2

    def test_query_distance_prefers_matching_shape(self, up_down_up, rising_line):
        compiled = compile_query(q.concat(q.up(), q.down(), q.up()))
        assert dtw_query_distance(up_down_up, compiled) < dtw_query_distance(
            rising_line, compiled
        )

    def test_rank_by_dtw(self, up_down_up, rising_line, flat_line):
        compiled = compile_query(q.concat(q.up(), q.down(), q.up()))
        ranked = rank_by_dtw([rising_line, flat_line, up_down_up], compiled, k=3)
        assert ranked[0][0].key == "udu"


class TestEuclidean:
    def test_identity(self):
        values = np.linspace(0, 1, 20)
        assert euclidean_distance(values, values) == pytest.approx(0.0)

    def test_scale_invariance_via_znorm(self):
        a = np.linspace(0, 1, 20)
        assert euclidean_distance(a, a * 100 + 7) == pytest.approx(0.0, abs=1e-9)

    def test_resampling(self):
        a = np.linspace(0, 1, 20)
        b = np.linspace(0, 1, 50)
        assert euclidean_distance(a, b) == pytest.approx(0.0, abs=1e-6)

    def test_rank_by_euclidean(self, up_down_up, rising_line):
        compiled = compile_query(q.up())
        ranked = rank_by_euclidean([up_down_up, rising_line], compiled, k=2)
        assert ranked[0][0].key == "rise"


class TestVqs:
    def test_smooth_preserves_length(self):
        values = np.arange(20.0)
        assert len(smooth(values, 5)) == 20
        assert np.allclose(smooth(values, 1), values)

    def test_smoothing_reduces_noise(self):
        rng = np.random.default_rng(0)
        noisy = np.linspace(0, 1, 100) + rng.normal(0, 0.3, 100)
        assert smooth(noisy, 9).std() < noisy.std()

    def test_unknown_measure(self):
        with pytest.raises(ExecutionError):
            VisualQuerySystem(measure="cosine")

    def test_rank_with_euclidean(self, up_down_up, rising_line, flat_line):
        vqs = VisualQuerySystem(measure="euclidean")
        sketch = np.concatenate([np.linspace(0, 1, 20), np.linspace(1, 0.2, 20), np.linspace(0.2, 1, 20)])
        ranked = vqs.rank([rising_line, flat_line, up_down_up], sketch, k=1)
        assert ranked[0][0].key == "udu"

    def test_rank_with_dtw(self, up_down_up, rising_line):
        vqs = VisualQuerySystem(measure="dtw", smoothing=3)
        sketch = np.linspace(0, 1, 30)
        ranked = vqs.rank([up_down_up, rising_line], sketch, k=1)
        assert ranked[0][0].key == "rise"
