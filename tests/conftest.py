"""Shared fixtures and hypothesis configuration for the test suite."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.engine.trendline import Trendline, build_trendline

# Keep property tests fast and deterministic in CI.
settings.register_profile(
    "repro",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


def make_trendline(values, key="t", x=None) -> Trendline:
    """Helper: a trendline from raw values with integer x."""
    values = np.asarray(values, dtype=float)
    if x is None:
        x = np.arange(len(values), dtype=float)
    return build_trendline(key, x, values)


@pytest.fixture
def up_down_up() -> Trendline:
    """A clean rise–fall–rise shape, 60 points."""
    y = np.concatenate(
        [np.linspace(0, 10, 20), np.linspace(10, 2, 20), np.linspace(2, 12, 20)]
    )
    return make_trendline(y, key="udu")


@pytest.fixture
def noisy_up_down_up() -> Trendline:
    """The same shape with noise (seeded)."""
    rng = np.random.default_rng(7)
    y = np.concatenate(
        [np.linspace(0, 10, 20), np.linspace(10, 2, 20), np.linspace(2, 12, 20)]
    )
    return make_trendline(y + rng.normal(0, 0.4, 60), key="udu-noisy")


@pytest.fixture
def flat_line() -> Trendline:
    """A stable trendline with tiny noise."""
    rng = np.random.default_rng(3)
    return make_trendline(5.0 + rng.normal(0, 0.05, 50), key="flat")


@pytest.fixture
def rising_line() -> Trendline:
    """A monotone rise."""
    return make_trendline(np.linspace(0, 10, 50), key="rise")


@pytest.fixture
def rule_tagger():
    """The lexicon-only entity tagger (no CRF training cost)."""
    from repro.nlp.tagger import EntityTagger

    return EntityTagger(mode="rule")


def same_key(a, b) -> bool:
    """Group keys equal *as objects*: same type, same value, NaN == NaN."""
    return (a != a and b != b) or (type(a) is type(b) and a == b)


@pytest.fixture
def encoded_rows(monkeypatch):
    """Row counts of every walk through the one encode funnel, in order."""
    from repro.data import table as table_module

    visited = []
    real = table_module._encode_values

    def counting(values, slots):
        visited.append(len(values))
        return real(values, slots)

    monkeypatch.setattr(table_module, "_encode_values", counting)
    return visited
