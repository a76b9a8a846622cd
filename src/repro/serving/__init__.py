"""Multi-tenant serving layer: the session API over the wire.

The session API (:class:`repro.ShapeSearch` → ``prepare`` → ``run`` /
``submit``) is a single-process surface; this package puts it behind a
socket so many clients share one resident process — tables published
once and addressed by content fingerprint, engines and caches warm
across requests, per-shard progress streamed live.  Everything is
standard library: an asyncio streams server speaking minimal HTTP/1.1
and RFC 6455 WebSocket, no third-party dependencies.

Endpoints (see the README's "Serving" section)::

    POST /v1/tables    publish a table once -> its fingerprint address
    POST /v1/prepare   parse + compile a query; canonical form + plan
    POST /v1/search    blocking top-k; result-cache aware
    GET  /v1/stats     per-endpoint latency, admission, cache hit rates
    GET  /v1/submit    WebSocket: streamed progress frames + cancel

Three serving-grade subsystems ride the seams the engine already
exposes: **admission control** (:mod:`repro.serving.tenancy`) gates each
tenant with a token bucket and an inflight cap, shedding queued work
through :meth:`SearchFuture.cancel(reason="shed")
<repro.results.SearchFuture.cancel>` rather than hanging connections; a
**cross-request result cache** (:mod:`repro.serving.result_cache`) keyed
on (table fingerprint, canonical query, visual params, k, precision)
serves repeated searches without running Score at all (a request
repeated field for field is answered on the event loop from an alias of
its raw fields, with no parse); and
**observability** (:class:`~repro.serving.app.ServerStats`) reports
p50/p99 latency, shed rates, and cache hit rates on ``GET /v1/stats``.
"""

from repro.serving.app import ServerStats, ShapeServingApp
from repro.serving.client import ServingClient, ServingError, StreamingSearch
from repro.serving.protocol import (
    Overloaded,
    RequestError,
    json_dumps,
    result_payload,
)
from repro.serving.result_cache import ResultCache
from repro.serving.server import ServerHandle, ShapeSearchServer, start_in_thread
from repro.serving.tenancy import AdmissionController, TenantQuota, TokenBucket

__all__ = [
    "ShapeServingApp",
    "ServerStats",
    "ShapeSearchServer",
    "ServerHandle",
    "start_in_thread",
    "ServingClient",
    "StreamingSearch",
    "ServingError",
    "AdmissionController",
    "TenantQuota",
    "TokenBucket",
    "ResultCache",
    "Overloaded",
    "RequestError",
    "json_dumps",
    "result_payload",
]
