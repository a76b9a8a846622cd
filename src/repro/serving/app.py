"""The serving application: routing, handlers, and observability.

:class:`ShapeServingApp` is transport-agnostic glue between the wire
(:mod:`repro.serving.http` / :mod:`repro.serving.ws`) and the session
API: it owns the :class:`~repro.api.SessionRegistry` (tables), the
:class:`~repro.serving.tenancy.AdmissionController` (quotas), the
:class:`~repro.serving.result_cache.ResultCache` (responses), and the
:class:`ServerStats` every request reports into.

**The async/engine seam.**  Handlers are coroutines and must never
block the event loop (reprolint REP081 enforces this for the whole
package).  Only dictionary-sized steps run on the loop: the result
cache's alias lookup (a repeated request's raw fields → its canonical
key → its stored bytes), the lease-free registry check that its table
is still published, and :meth:`PreparedSearch.submit`, which only
enqueues onto the engine's dispatcher.  CPU-bound session work —
building and publishing tables, parsing and compiling queries,
computing the canonical key, releasing a session lease (whose last
release may close an evicted session) — runs on the default executor.
The :class:`~repro.results.SearchFuture` of a submitted execution is
bridged to asyncio via ``add_done_callback`` +
``call_soon_threadsafe``; ``future.result`` is only ever called after
the bridge observed resolution, when it cannot block.  A repeated
request therefore never leaves the loop, and never reaches
:meth:`ShapeServingApp._prepare_search_sync`.

**Response envelopes.**  A search response is ``{"cache": ..., "result":
{...}}`` where the ``result`` object's bytes are exactly
:func:`repro.serving.protocol.result_payload` through
:func:`~repro.serving.protocol.json_dumps` — the unit the result cache
stores, spliced into the envelope without re-serialization, so a warm
hit (``"cache": "result"``) is byte-identical to the cold response that
populated it.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.api import SessionRegistry
from repro.engine.artifacts import artifact_budget, prune
from repro.engine.control import CANCEL_SHED, CANCEL_SHUTDOWN, CANCEL_USER
from repro.errors import DataError, SearchCancelled
from repro.serving import http, ws
from repro.serving.protocol import (
    PROTOCOL_VERSION,
    Overloaded,
    RequestError,
    error_response,
    json_dumps,
    params_from_body,
    result_payload,
    search_k,
    table_from_body,
)
from repro.serving.result_cache import ResultCache
from repro.serving.tenancy import AdmissionController, TenantQuota

#: Tenant header; falls back to the body/message field, then "default".
TENANT_HEADER = "x-tenant"


def _quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile of an unsorted sample (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[index]


class _EndpointStats:
    __slots__ = ("count", "errors", "inflight", "latencies")

    def __init__(self, window: int) -> None:
        self.count = 0
        self.errors = 0
        self.inflight = 0
        self.latencies: deque = deque(maxlen=window)


class ServerStats:
    """Per-endpoint latency/error/inflight counters behind one lock.

    Latencies keep a sliding window (last ``window`` requests per
    endpoint) so the p50/p99 on ``/v1/stats`` reflect current behavior,
    not the whole process lifetime.
    """

    def __init__(
        self, clock: Callable[[], float] = time.monotonic, window: int = 1024
    ) -> None:
        self._clock = clock
        self._window = window
        self._lock = threading.Lock()
        self._endpoints: Dict[str, _EndpointStats] = {}

    def _entry(self, endpoint: str) -> _EndpointStats:
        entry = self._endpoints.get(endpoint)
        if entry is None:
            entry = self._endpoints[endpoint] = _EndpointStats(self._window)
        return entry

    def begin(self, endpoint: str) -> float:
        with self._lock:
            self._entry(endpoint).inflight += 1
        return self._clock()

    def end(self, endpoint: str, started: float, error: bool = False) -> None:
        elapsed = max(0.0, self._clock() - started)
        with self._lock:
            entry = self._entry(endpoint)
            entry.inflight = max(0, entry.inflight - 1)
            entry.count += 1
            if error:
                entry.errors += 1
            entry.latencies.append(elapsed)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                name: {
                    "count": entry.count,
                    "errors": entry.errors,
                    "inflight": entry.inflight,
                    "p50_ms": _quantile(list(entry.latencies), 0.50) * 1000.0,
                    "p99_ms": _quantile(list(entry.latencies), 0.99) * 1000.0,
                }
                for name, entry in self._endpoints.items()
            }


class ShapeServingApp:
    """Everything above the socket: routes, tenancy, caching, stats."""

    def __init__(
        self,
        registry: Optional[SessionRegistry] = None,
        quota: TenantQuota = TenantQuota(),
        max_inflight: int = 64,
        result_cache: Optional[ResultCache] = None,
        registry_capacity: int = 8,
        session_options: Optional[dict] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if registry is None:
            registry = SessionRegistry(
                capacity=registry_capacity, **(session_options or {})
            )
        self.registry = registry
        self.registry.add_evict_hook(self._artifact_gc)
        self.admission = AdmissionController(
            quota=quota, max_inflight=max_inflight, clock=clock
        )
        self.result_cache = result_cache if result_cache is not None else ResultCache()
        self.stats = ServerStats(clock=clock)
        #: The last artifact-store prune report (surfaced on /v1/stats).
        self.last_prune: Optional[dict] = None

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Shed every inflight execution, then close all sessions."""
        self.admission.sweep(CANCEL_SHUTDOWN)
        self.registry.close()

    def _artifact_gc(self, fingerprint: str, session) -> None:
        """Table-eviction hook: prune the artifact store to its budget.

        Disk follows memory: when the registry drops a session, the
        engine's artifact store (if configured) is pruned back to the
        :data:`~repro.engine.artifacts.ARTIFACT_BUDGET_ENV` byte budget
        so cold shape indexes do not outgrow the deployment.
        """
        store = getattr(session.engine, "store", None)
        if not store:
            return
        budget = artifact_budget()
        if budget is None:
            return
        report = prune(store, max_bytes=budget)
        self.last_prune = {
            "examined": report.examined,
            "removed": report.removed,
            "freed_bytes": report.freed_bytes,
            "kept_bytes": report.kept_bytes,
        }

    # -- connection entry point ---------------------------------------------
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One accepted socket: keep-alive HTTP, or a WebSocket upgrade."""
        try:
            while True:
                request = await http.read_request(reader)
                if request is None:
                    break
                if request.path == "/v1/submit" and request.wants_websocket:
                    await self._handle_ws(request, reader, writer)
                    break
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive:
                    break
        except ConnectionError:
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _dispatch(
        self, request: http.HTTPRequest, writer: asyncio.StreamWriter
    ) -> bool:
        handler = self._route(request)
        # Only routed paths get their own stats entry; everything else
        # shares one fixed label so arbitrary 404 paths cannot grow the
        # per-endpoint table without bound.
        endpoint = request.path if handler is not None else "other"
        started = self.stats.begin(endpoint)
        status = 500
        try:
            if handler is None:
                status, body = 404, json_dumps(
                    {"error": {"code": "not_found",
                               "message": "no route {} {}".format(
                                   request.method, request.path)}}
                )
            else:
                status, body = await handler(request)
        except ValueError as exc:
            status, payload = 400, {
                "error": {"code": "bad_request", "message": str(exc)}
            }
            body = json_dumps(payload)
        except Exception as exc:  # every error is a response, never a hang
            status, payload = error_response(exc)
            body = json_dumps(payload)
        finally:
            self.stats.end(endpoint, started, error=status >= 400)
        keep_alive = request.keep_alive
        writer.write(
            http.response_bytes(status, body, keep_alive=keep_alive)
        )
        try:
            await writer.drain()
        except ConnectionError:
            return False
        return keep_alive

    def _route(self, request: http.HTTPRequest):
        routes = {
            ("POST", "/v1/tables"): self._handle_tables,
            ("POST", "/v1/prepare"): self._handle_prepare,
            ("POST", "/v1/search"): self._handle_search,
            ("GET", "/v1/stats"): self._handle_stats,
        }
        return routes.get((request.method, request.path))

    # -- HTTP handlers -------------------------------------------------------
    async def _handle_tables(self, request: http.HTTPRequest) -> Tuple[int, bytes]:
        body = request.json()
        loop = asyncio.get_running_loop()
        fingerprint, rows, columns = await loop.run_in_executor(
            None, self._publish_sync, body
        )
        return 200, json_dumps(
            {"fingerprint": fingerprint, "rows": rows, "columns": columns}
        )

    def _publish_sync(self, body: dict) -> Tuple[str, int, list]:
        table = table_from_body(body)
        fingerprint = self.registry.publish(table)
        return fingerprint, len(table), list(table.column_names)

    async def _handle_prepare(self, request: http.HTTPRequest) -> Tuple[int, bytes]:
        body = request.json()
        loop = asyncio.get_running_loop()
        payload = await loop.run_in_executor(None, self._prepare_payload_sync, body)
        return 200, json_dumps(payload)

    def _prepare_payload_sync(self, body: dict) -> dict:
        prepared, k, _key, fingerprint, session = self._prepare_search_sync(body)
        try:
            return {
                "table": fingerprint,
                "query": prepared.explain(),
                "plan": prepared.explain_plan(k=k),
                "k": k,
            }
        finally:
            self.registry.release(session)

    async def _handle_search(self, request: http.HTTPRequest) -> Tuple[int, bytes]:
        body = request.json()
        tenant = self._tenant(request, body)
        try:
            cache_flag, payload = await self._search(body, tenant)
        except SearchCancelled as exc:
            raise self._map_cancel(exc)
        return 200, _result_envelope(payload, cache_flag)

    async def _handle_stats(self, request: http.HTTPRequest) -> Tuple[int, bytes]:
        return 200, json_dumps(self.snapshot())

    def _tenant(self, request: http.HTTPRequest, body: dict) -> str:
        tenant = request.headers.get(TENANT_HEADER) or body.get("tenant")
        return tenant if isinstance(tenant, str) and tenant else "default"

    @staticmethod
    def _map_cancel(exc: SearchCancelled) -> Exception:
        """A shed execution is the server's refusal, not a user cancel."""
        if getattr(exc, "_shed", False):
            return Overloaded("overloaded", "execution shed under load")
        return exc

    # -- the shared search core ---------------------------------------------
    async def _release_session(self, session) -> None:
        """Drop a session lease off-loop.

        The last release of an evicted session runs its deferred
        :meth:`ShapeSearch.close` (worker pools, shared memory) — real
        blocking work, so it goes through the executor like every other
        engine call.
        """
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.registry.release, session)

    def _prepare_search_sync(self, body: dict):
        """Resolve (prepared, k, cache key, fingerprint, session) for one request.

        Runs on the executor: registry lookup, query parse + compile
        (through the session's plan cache), and the response-determining
        cache key.  Raises :class:`RequestError` 404 for fingerprints
        never published (or already evicted).  Once all of that
        succeeded, the request's alias is recorded against the key, so
        the same fields sent again are answered by
        :meth:`_cached_response` on the loop.

        The returned session is **checked out** of the registry — the
        lease keeps a concurrent publish/close from tearing it down
        mid-search — and the caller must ``registry.release(session)``
        exactly once when done with it (on error the lease is released
        here before the exception propagates).
        """
        fingerprint = body.get("table")
        if not isinstance(fingerprint, str) or not fingerprint:
            raise DataError("request field 'table' must be a fingerprint string")
        try:
            session = self.registry.checkout(fingerprint)
        except DataError:
            raise RequestError(
                404, "unknown_table",
                "table {!r} is not published (POST /v1/tables first)".format(
                    fingerprint
                ),
            )
        try:
            query = body.get("query")
            if not isinstance(query, str) or not query:
                raise DataError("request field 'query' must be a non-empty string")
            params = params_from_body(body)
            k = search_k(body)
            prepared = session.prepare(
                query, z=params.z, x=params.x, y=params.y, filters=params.filters,
                aggregate=params.aggregate, bin_width=params.bin_width,
            )
            key = ResultCache.key(
                fingerprint, prepared.explain(), params, k, session.engine.precision
            )
        except BaseException:
            self.registry.release(session)
            raise
        self.result_cache.remember(ResultCache.alias(fingerprint, body), key)
        return prepared, k, key, fingerprint, session

    def _cached_response(self, body: dict) -> Optional[bytes]:
        """A repeated request's stored bytes, found on the loop, or None.

        Resolves the request's alias to its canonical key and checks
        that the table is still published (promoting it in the
        registry's LRU, without a lease).  None means "take the slow
        path", which counts the hit or miss and answers 404 for a table
        no longer published; this lookup counts only the hits it serves.
        """
        fingerprint = body.get("table")
        if not isinstance(fingerprint, str):
            return None
        key = self.result_cache.resolve(ResultCache.alias(fingerprint, body))
        if key is None:
            return None
        try:
            self.registry.get(fingerprint)
        except DataError:
            return None
        return self.result_cache.get(key)

    async def _search(
        self, body: dict, tenant: str, progress=None
    ) -> Tuple[Optional[str], bytes]:
        """Admission → cache → engine; returns (cache flag, result bytes).

        The happy path of both ``POST /v1/search`` and each WebSocket
        search message.  A result-cache hit returns the stored bytes
        without consuming admission capacity or touching the engine —
        the Score stage never runs (``"cache": "result"`` in the
        envelope).  A cancellation raises :class:`SearchCancelled`
        annotated with whether it was a load-shed.
        """
        cached = self._cached_response(body)
        if cached is not None:
            return "result", cached
        loop = asyncio.get_running_loop()
        prepared, k, key, _fingerprint, session = await loop.run_in_executor(
            None, self._prepare_search_sync, body
        )
        try:
            cached = self.result_cache.get(key)
            if cached is not None:
                return "result", cached
            code = self.admission.admit(tenant)
            if code is not None:
                raise Overloaded(code)
            future = None
            try:
                future = prepared.submit(k=k, progress=progress)
                self.admission.attach(tenant, future)
                await _await_future(future)
                try:
                    results = future.result(timeout=0)
                except SearchCancelled as exc:
                    exc._shed = future.cancel_reason == CANCEL_SHED
                    raise
            finally:
                self.admission.finish(tenant, future)
            payload = json_dumps(result_payload(results))
            self.result_cache.put(key, payload)
            return None, payload
        finally:
            await self._release_session(session)

    # -- WebSocket -----------------------------------------------------------
    async def _handle_ws(
        self,
        request: http.HTTPRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """The streaming surface: search/cancel messages, progress frames.

        Client messages are JSON texts: ``{"type": "search", "id": ...,
        "table": ..., "query": ..., "z"/"x"/"y": ..., "k": ...}`` starts
        a search (many may run concurrently on one connection, each
        under a distinct id — reusing an id still active on the
        connection is refused with an ``error`` frame);
        ``{"type": "cancel", "id": ...}`` cooperatively cancels one.
        A cancel racing ahead of its search's engine submission is
        remembered and applied at submit; cancels for ids that are
        unknown or already finished are ignored, so neither map can
        grow past the connection's concurrently active searches.
        The server streams ``progress`` frames per completed shard and
        terminates every search with exactly one ``result``, ``error``,
        or ``cancelled`` frame — a refused or shed search gets its
        terminal frame immediately, never a silent hang.
        """
        key = request.headers.get("sec-websocket-key")
        if not key:
            writer.write(http.response_bytes(
                400, json_dumps({"error": {"code": "bad_handshake",
                                           "message": "missing websocket key"}}),
                keep_alive=False,
            ))
            await writer.drain()
            return
        writer.write(http.switching_protocols(ws.accept_key(key)))
        await writer.drain()
        conn = ws.WebSocketConnection(reader, writer)
        header_tenant = request.headers.get(TENANT_HEADER, "")
        searches: Dict[object, object] = {}
        cancelled_early: set = set()
        tasks: set = set()
        try:
            while True:
                payload = await conn.recv()
                if payload is None:
                    break
                try:
                    message = json.loads(payload.decode("utf-8"))
                    if not isinstance(message, dict):
                        raise ValueError("message must be a JSON object")
                except (ValueError, UnicodeDecodeError) as exc:
                    await conn.send_json({
                        "code": "bad_request", "message": str(exc),
                        "type": "error",
                    })
                    continue
                mtype = message.get("type")
                if mtype == "search":
                    sid = message.get("id")
                    if sid in searches:
                        await conn.send_json({
                            "code": "bad_request",
                            "id": sid,
                            "message": "search id {!r} is already active on "
                                       "this connection".format(sid),
                            "type": "error",
                        })
                        continue
                    # Claim the id now (value None until the engine
                    # future exists) so a racing cancel has somewhere to
                    # land and a duplicate submit is refused.
                    searches[sid] = None
                    tenant = message.get("tenant") or header_tenant or "default"
                    task = asyncio.ensure_future(self._ws_search(
                        conn, message, tenant, searches, cancelled_early
                    ))
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
                elif mtype == "cancel":
                    sid = message.get("id")
                    if sid in searches:
                        future = searches[sid]
                        if future is not None:
                            future.cancel(reason=CANCEL_USER)
                        else:
                            cancelled_early.add(sid)
                    # else: unknown or already-finished id — nothing to
                    # cancel, and remembering it would only leak (or
                    # shoot down a later search reusing the id).
                elif mtype == "ping":
                    await conn.send_json({"type": "pong"})
                else:
                    await conn.send_json({
                        "code": "bad_request",
                        "id": message.get("id"),
                        "message": "unknown message type {!r}".format(mtype),
                        "type": "error",
                    })
        finally:
            for future in searches.values():
                if future is not None:
                    future.cancel(reason=CANCEL_SHUTDOWN)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            await conn.close()

    async def _ws_search(
        self, conn: "ws.WebSocketConnection", message: dict, tenant: str,
        searches: dict, cancelled_early: set,
    ) -> None:
        """One search task: run it, release its id, send its terminal frame.

        The id bookkeeping (``searches`` entry, any pending early
        cancel) is cleared *before* the terminal frame is written, so a
        client that saw the terminal frame can immediately reuse the id
        without racing this task's teardown.
        """
        sid = message.get("id")
        endpoint = "WS /v1/submit"
        started = self.stats.begin(endpoint)
        error = True
        terminal = None
        try:
            try:
                error, terminal = await self._ws_search_run(
                    conn, message, tenant, sid, searches, cancelled_early
                )
            except Exception as exc:
                error, terminal = True, self._ws_error_frame(sid, exc)
        finally:
            searches.pop(sid, None)
            cancelled_early.discard(sid)
            self.stats.end(endpoint, started, error=error)
        if terminal is not None:
            await conn.send(terminal)

    async def _ws_search_run(
        self, conn: "ws.WebSocketConnection", message: dict, tenant: str,
        sid, searches: dict, cancelled_early: set,
    ) -> Tuple[bool, Optional[bytes]]:
        """The search itself; returns ``(is_error, terminal frame bytes)``.

        Sends ``accepted``/``progress`` frames inline but leaves the
        terminal frame to the caller, which sends it only after the
        connection's id bookkeeping for ``sid`` is released.
        """
        cached = self._cached_response(message)
        if cached is not None:
            return False, _result_envelope(cached, "result", sid=sid)
        loop = asyncio.get_running_loop()
        try:
            prepared, k, key, _fingerprint, session = await loop.run_in_executor(
                None, self._prepare_search_sync, message
            )
        except Exception as exc:
            return True, self._ws_error_frame(sid, exc)
        try:
            cached = self.result_cache.get(key)
            if cached is not None:
                return False, _result_envelope(cached, "result", sid=sid)
            code = self.admission.admit(tenant)
            if code is not None:
                return True, json_dumps({"code": code, "id": sid, "type": "error"})
            updates: asyncio.Queue = asyncio.Queue()

            def on_progress(completed, total):
                loop.call_soon_threadsafe(updates.put_nowait, (completed, total))

            future = None
            try:
                future = prepared.submit(k=k, progress=on_progress)
                searches[sid] = future
                if sid in cancelled_early:
                    cancelled_early.discard(sid)
                    future.cancel(reason=CANCEL_USER)
                self.admission.attach(tenant, future)
                future.add_done_callback(
                    lambda _f: loop.call_soon_threadsafe(updates.put_nowait, None)
                )
                await conn.send_json({"id": sid, "type": "accepted"})
                while True:
                    item = await updates.get()
                    if item is None:
                        break
                    completed, total = item
                    await conn.send_json({
                        "completed": completed, "id": sid, "total": total,
                        "type": "progress",
                    })
                try:
                    results = future.result(timeout=0)
                except SearchCancelled:
                    reason = future.cancel_reason or CANCEL_USER
                    if reason == CANCEL_SHED:
                        return True, json_dumps({
                            "code": "overloaded", "id": sid, "type": "error",
                        })
                    return False, json_dumps({
                        "id": sid, "reason": reason, "type": "cancelled",
                    })
                except Exception as exc:
                    return True, self._ws_error_frame(sid, exc)
            finally:
                self.admission.finish(tenant, future)
            payload = json_dumps(result_payload(results))
            self.result_cache.put(key, payload)
            return False, _result_envelope(payload, None, sid=sid)
        finally:
            await self._release_session(session)

    def _ws_error_frame(self, sid, exc: BaseException) -> bytes:
        _status, payload = error_response(exc)
        body = payload["error"]
        return json_dumps({
            "code": body["code"], "id": sid, "message": body["message"],
            "type": "error",
        })

    # -- observability -------------------------------------------------------
    def snapshot(self) -> dict:
        """The ``GET /v1/stats`` payload."""
        return {
            "protocol": PROTOCOL_VERSION,
            "endpoints": self.stats.snapshot(),
            "admission": self.admission.snapshot(),
            "result_cache": self.result_cache.snapshot(),
            "registry": {
                "sessions": len(self.registry),
                "capacity": self.registry.capacity,
                "fingerprints": self.registry.fingerprints(),
            },
            "artifact_prune": self.last_prune,
        }


#: Distinguishes "HTTP envelope, no id field" from a WS search whose id
#: happens to be null — the WS terminal frame always carries id + type.
_NO_ID = object()


def _result_envelope(
    payload: bytes, cache: Optional[str], sid: object = _NO_ID
) -> bytes:
    """Splice stored result bytes into a response envelope.

    The ``result`` field's bytes are used verbatim (no decode/re-encode
    round trip), which is what makes cached and cold responses
    byte-identical in the part that matters.  Field order is the sorted
    order :func:`json_dumps` would produce: cache, id, result, type.
    """
    parts = [b'"cache":' + json_dumps(cache)]
    if sid is not _NO_ID:
        parts.append(b'"id":' + json_dumps(sid))
    parts.append(b'"result":' + payload)
    if sid is not _NO_ID:
        parts.append(b'"type":"result"')
    return b"{" + b",".join(parts) + b"}"


async def _await_future(future) -> None:
    """Await a :class:`SearchFuture` without blocking the event loop."""
    loop = asyncio.get_running_loop()
    event = asyncio.Event()
    future.add_done_callback(lambda _f: loop.call_soon_threadsafe(event.set))
    await event.wait()
