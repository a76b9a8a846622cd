"""ShapeSearch: shape-based exploration of trendlines (SIGMOD 2020 repro).

A from-scratch reproduction of Siddiqui et al.'s ShapeSearch system: the
ShapeQuery algebra, natural-language / regex / sketch front-ends, and
the optimized fuzzy-segmentation execution engine.

Quickstart::

    from repro import ShapeSearch

    session = ShapeSearch.from_csv("stocks.csv")
    prepared = session.prepare("up then down then up",
                               z="symbol", x="day", y="price")
    for match in prepared.run(k=5):
        print(match.key, match.score)

    future = prepared.submit(k=5)      # non-blocking; cancellable
    results = future.result()          # ResultSet: stats, plan, matches
"""

from repro.algebra.printer import to_regex
from repro.api import (
    PreparedSearch,
    SessionRegistry,
    ShapeSearch,
    TailSearch,
    parse_query,
)
from repro.data.table import Table
from repro.data.visual_params import VisualParams
from repro.engine.control import ExecutionControl
from repro.engine.executor import ExecutionStats, Match, ShapeSearchEngine
from repro.engine.scoring import register_udp, temporary_udp, unregister_udp
from repro.errors import (
    AmbiguityError,
    DataError,
    ExecutionError,
    SearchCancelled,
    ShapeQuerySyntaxError,
    ShapeQueryValidationError,
    ShapeSearchDeprecationWarning,
    ShapeSearchError,
)
from repro.results import ResultSet, SearchFuture

__version__ = "1.1.0"

__all__ = [
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
