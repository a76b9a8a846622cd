"""The surface ratchet: the exact public surface of the package, engine and session.

Every option is a branch of the plan lattice that some test must cover,
and every entry verb is a path some test must drive, so these names are
pinned here: adding a knob or a verb means editing this file and saying
why.  ``workers=`` is the whole parallel plan — there is no backend,
transport, generation placement or shard-size option — and each job has
one verb (``prepare → run | submit``, ``tail``, ``search_sketch``,
``submit_many``; ``run``, ``run_many``, ``submit``, ``submit_many``,
``rank`` on the engine).
"""

import inspect
import types
import warnings

import numpy as np
import pytest

import repro
from repro import (
    PreparedSearch,
    ShapeSearch,
    ShapeSearchDeprecationWarning,
    Table,
    TailSearch,
)
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


#: ``repro.__all__``, exactly.  Internals (worker pool, shm session,
#: caches) are imported from their own modules.
PACKAGE_NAMES = [
    "ShapeSearch",
    "PreparedSearch",
    "TailSearch",
    "SessionRegistry",
    "ResultSet",
    "SearchFuture",
    "ExecutionControl",
    "parse_query",
    "to_regex",
    "Table",
    "VisualParams",
    "Match",
    "ShapeSearchEngine",
    "ExecutionStats",
    "register_udp",
    "unregister_udp",
    "temporary_udp",
    "ShapeSearchError",
    "ShapeQuerySyntaxError",
    "ShapeQueryValidationError",
    "ShapeSearchDeprecationWarning",
    "AmbiguityError",
    "ExecutionError",
    "SearchCancelled",
    "DataError",
    "__version__",
]

#: Public methods and properties per class, sorted.
PUBLIC_SURFACE = {
    ShapeSearch: [
        "close", "explain", "explain_plan", "fingerprint", "from_arrays",
        "from_csv", "from_json", "from_records", "prepare", "search_sketch",
        "submit_many", "tail",
    ],
    PreparedSearch: ["explain", "explain_plan", "run", "submit"],
    TailSearch: [
        "append_rows", "explain", "explain_plan", "refresh", "results",
        "revision", "run", "state_stats", "submit",
    ],
    ShapeSearchEngine: [
        "close", "compile", "explain_plan", "rank", "run", "run_many",
        "submit", "submit_many",
    ],
}

#: Entry points that duplicated one of the verbs above, now gone.
REMOVED_VERBS = [
    "execute", "execute_many", "execute_with_stats",
    "execute_many_with_stats", "rank_with_stats", "search", "search_many",
    "last_stats",
]

_MEMBER_KINDS = (types.FunctionType, classmethod, staticmethod, property)


def _public_surface(cls):
    return sorted(
        name for name in dir(cls)
        if not name.startswith("_")
        and isinstance(inspect.getattr_static(cls, name), _MEMBER_KINDS)
    )


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


def test_package_names_are_pinned():
    assert repro.__all__ == PACKAGE_NAMES


@pytest.mark.parametrize("cls", list(PUBLIC_SURFACE), ids=lambda cls: cls.__name__)
def test_public_surface_is_pinned(cls):
    assert _public_surface(cls) == PUBLIC_SURFACE[cls]


@pytest.mark.parametrize("verb", REMOVED_VERBS)
def test_removed_verbs_are_gone(verb):
    with ShapeSearch(_table()) as session:
        for owner in (session, session.engine):
            assert not hasattr(owner, verb)


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


@pytest.mark.parametrize("workers,backend", [(1, "thread"), (3, "thread"), (2, "process")])
def test_session_backend_keeps_workers_plan(workers, backend):
    # Whatever backend the session names, its engine is the workers= one
    # and answers exactly like a plain engine of that worker count.
    table = _table()
    query = "[p=up][p=down]"
    with pytest.warns(ShapeSearchDeprecationWarning, match="backend"):
        session = ShapeSearch(table, workers=workers, backend=backend)
    with session, ShapeSearch(table, workers=workers) as plain:
        assert session.engine.workers == workers
        got = session.prepare(query, z="z", x="x", y="y").run(k=4)
        expected = plain.prepare(query, z="z", x="x", y="y").run(k=4)
        assert got.to_records() == expected.to_records()


def test_session_rejects_unknown_backend():
    with warnings.catch_warnings():
        warnings.simplefilter("error", ShapeSearchDeprecationWarning)
        with pytest.raises(ExecutionError):
            ShapeSearch(_table(), backend="gpu")


def test_deprecation_category_is_a_deprecation_warning():
    assert issubclass(ShapeSearchDeprecationWarning, DeprecationWarning)


def test_backend_warning_escalates_under_error_filter():
    # What the CI deprecations job enforces suite-wide.
    with warnings.catch_warnings():
        warnings.simplefilter("error", ShapeSearchDeprecationWarning)
        with pytest.raises(ShapeSearchDeprecationWarning):
            ShapeSearch(_table(), backend="process")
