"""Wire protocol: canonical JSON payloads and the error-status mapping.

Everything the server writes goes through :func:`json_dumps` — sorted
keys, minimal separators, numpy scalars coerced — so one logical
response has exactly one byte encoding.  That determinism is what makes
the cross-request result cache sound: a cached response *is* the bytes a
cold execution would have produced, and the acceptance contract
("responses byte-identical to direct session-API calls") reduces to
comparing :func:`result_payload` outputs.

The module is pure functions over plain data (no sockets, no asyncio),
shared by the async server and the synchronous test client.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.data.table import Table
from repro.data.visual_params import VisualParams
from repro.errors import (
    AmbiguityError,
    DataError,
    SearchCancelled,
    ShapeQuerySyntaxError,
    ShapeQueryValidationError,
)
from repro.results import ResultSet

#: Bumped on any wire-visible change; clients check it on /v1/stats.
PROTOCOL_VERSION = 1


class RequestError(Exception):
    """A request the server refuses with a specific status + code.

    Raised by handlers for conditions that are neither library errors
    nor overload — most prominently ``404 unknown_table`` when a search
    addresses a fingerprint that was never published (or was evicted).
    """

    def __init__(self, status: int, code: str, message: str = "") -> None:
        super().__init__(message or code)
        self.status = status
        self.code = code


class Overloaded(Exception):
    """Admission control refused the request (HTTP 429, never a hang).

    ``code`` distinguishes the two refusals: ``"rate_limited"`` (the
    tenant's token bucket is empty) and ``"overloaded"`` (an inflight
    cap is full, or the execution was shed mid-flight to make room).
    """

    def __init__(self, code: str, message: str = "") -> None:
        super().__init__(message or code)
        self.code = code


def _json_default(value: Any) -> Any:
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(
        "value of type {!r} is not JSON-serializable".format(type(value))
    )


def json_dumps(obj: Any) -> bytes:
    """Canonical JSON bytes: sorted keys, no whitespace, numpy coerced."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), default=_json_default
    ).encode("utf-8")


def stats_payload(stats: Any) -> Optional[dict]:
    """The wire form of one call's :class:`ExecutionStats` (or None)."""
    if stats is None:
        return None
    payload = {
        "candidates": stats.candidates,
        "extracted": stats.extracted,
        "eager_discarded": stats.eager_discarded,
        "scored": stats.scored,
        "shards": stats.shards,
        "generation": stats.generation,
        "appended_rows": stats.appended_rows,
        "index_candidates": stats.index_candidates,
        "index_pruned": stats.index_pruned,
        "index_source": stats.index_source,
        "index_reason": stats.index_reason,
        "trendline_cache_hit": stats.trendline_cache_hit,
        "plan_cache_hit": stats.plan_cache_hit,
    }
    return payload


def result_payload(results: ResultSet) -> dict:
    """The wire form of a :class:`~repro.results.ResultSet`.

    Matches ride as ``to_records``-shaped dicts, stats as the flat
    :func:`stats_payload` dict, the plan as its rendered text.  Passing
    this through :func:`json_dumps` yields the exact bytes the result
    cache stores — a direct session-API call and a served response over
    the same (table, query, k) encode identically.
    """
    return {
        "matches": results.to_records(),
        "stats": stats_payload(results.stats),
        "plan": results.plan,
    }


def params_from_body(body: dict) -> VisualParams:
    """Build :class:`VisualParams` from a request body.

    ``z``/``x``/``y`` are required strings; ``filters`` is a list of
    filter strings (``"price > 10"``), parsed by the same
    :func:`~repro.data.filters.parse_filter` the Python API uses.
    """
    for name in ("z", "x", "y"):
        value = body.get(name)
        if not isinstance(value, str) or not value:
            raise DataError(
                "request field {!r} must be a non-empty column name".format(name)
            )
    filters = body.get("filters", ())
    if isinstance(filters, str):
        filters = (filters,)
    if not isinstance(filters, (list, tuple)):
        raise DataError("request field 'filters' must be a list of filter strings")
    bin_width = body.get("bin_width")
    return VisualParams(
        z=body["z"],
        x=body["x"],
        y=body["y"],
        filters=tuple(filters),
        aggregate=body.get("aggregate", "mean"),
        bin_width=float(bin_width) if bin_width is not None else None,
    )


def table_from_body(body: dict) -> Table:
    """Build a :class:`Table` from a ``POST /v1/tables`` body.

    Accepts ``{"columns": {name: [values...]}}`` (the compact form) or
    ``{"records": [{...}, ...]}`` (one dict per row).
    """
    columns = body.get("columns")
    if columns is not None:
        if not isinstance(columns, dict) or not columns:
            raise DataError("'columns' must be a non-empty mapping of arrays")
        return Table.from_arrays(**columns)
    records = body.get("records")
    if records is not None:
        if not isinstance(records, list) or not records:
            raise DataError("'records' must be a non-empty list of row dicts")
        return Table.from_records(records)
    raise DataError("table payload needs 'columns' or 'records'")


def search_k(body: dict) -> int:
    """The validated ``k`` of a search request (default 10)."""
    k = body.get("k", 10)
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise DataError("request field 'k' must be a positive integer")
    return k


#: Exception type -> (HTTP status, wire error code).  Order matters:
#: the first matching entry wins, so subclasses precede their bases.
_ERROR_MAP: Tuple[Tuple[type, int, str], ...] = (
    (Overloaded, 429, ""),  # code taken from the exception
    (RequestError, 0, ""),  # status + code taken from the exception
    (SearchCancelled, 409, "cancelled"),
    (ShapeQuerySyntaxError, 400, "bad_query"),
    (ShapeQueryValidationError, 400, "bad_query"),
    (AmbiguityError, 400, "bad_query"),
    (DataError, 400, "bad_request"),
)


def error_response(exc: BaseException) -> Tuple[int, Dict[str, Any]]:
    """Map an exception to ``(status, {"error": {...}})``.

    Library errors (syntax, validation, data) are the client's fault
    (400); an unpublished fingerprint is 404; admission refusals are
    429 with the refusal code; anything unrecognized is an opaque 500
    (the message is not leaked — check the server log).
    """
    for exc_type, status, code in _ERROR_MAP:
        if isinstance(exc, exc_type):
            if isinstance(exc, (Overloaded, RequestError)):
                status = exc.status if isinstance(exc, RequestError) else 429
                code = exc.code
            return status, {"error": {"code": code, "message": str(exc)}}
    return 500, {"error": {"code": "internal", "message": "internal server error"}}
