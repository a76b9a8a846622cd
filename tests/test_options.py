"""The option ratchet: the exact constructor surface of the engine and session.

Every option is a branch of the plan lattice that some test must cover,
so these names are pinned here: adding a knob means editing this file
and saying why.  ``workers=`` is the whole parallel plan — there is no
backend, transport, generation placement or shard-size option.
"""

import inspect
import warnings

import numpy as np
import pytest

from repro import ShapeSearch, ShapeSearchDeprecationWarning, Table
from repro.api import _SESSION_OPTIONS
from repro.engine.executor import ShapeSearchEngine
from repro.errors import ExecutionError

ENGINE_OPTIONS = [
    "algorithm",
    "enable_pushdown",
    "workers",
    "cache",
    "quantifier_threshold",
    "kernel",
    "index",
    "precision",
    "store",
]

#: ``backend`` is the one deprecated, ignored session keyword.
SESSION_OPTIONS = [
    "engine",
    "tagger",
    "workers",
    "cache",
    "backend",
    "quantifier_threshold",
    "kernel",
    "index",
    "precision",
    "store",
]


def _parameters(function):
    return [name for name in inspect.signature(function).parameters if name != "self"]


def _table():
    rng = np.random.default_rng(4)
    return Table.from_arrays(
        z=np.repeat(np.array(["a", "b", "c", "d"], dtype=object), 20),
        x=np.tile(np.arange(20, dtype=float), 4),
        y=rng.normal(0, 1, 80).cumsum(),
    )


def test_engine_options_are_pinned():
    assert _parameters(ShapeSearchEngine.__init__) == ENGINE_OPTIONS
    assert len(ENGINE_OPTIONS) == 9


def test_session_options_are_pinned():
    assert _parameters(ShapeSearch.__init__) == ["table"] + SESSION_OPTIONS
    assert list(_SESSION_OPTIONS) == SESSION_OPTIONS


@pytest.mark.parametrize("name", [
    "backend", "shm", "generation", "chunk_size",
    "enable_pruning", "sample_size", "sample_points",
])
def test_engine_rejects_removed_options(name):
    with pytest.raises(TypeError):
        ShapeSearchEngine(**{name: "process"})


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_session_backend_warns_and_is_ignored(backend):
    table = _table()
    with pytest.warns(ShapeSearchDeprecationWarning, match="backend"):
        legacy = ShapeSearch(table, backend=backend)
    with legacy, ShapeSearch(table) as plain:
        assert legacy.engine.workers == plain.engine.workers == 1
        assert vars(legacy.engine).keys() == vars(plain.engine).keys()
        got = legacy.prepare("[p=up][p=down]", z="z", x="x", y="y").run(k=3)
        expected = plain.prepare("[p=up][p=down]", z="z", x="x", y="y").run(k=3)
        assert got.to_records() == expected.to_records()
        assert got.plan == expected.plan


def test_session_rejects_unknown_backend():
    with warnings.catch_warnings():
        warnings.simplefilter("error", ShapeSearchDeprecationWarning)
        with pytest.raises(ExecutionError):
            ShapeSearch(_table(), backend="gpu")
