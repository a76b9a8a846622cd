"""The serving layer: protocol, codec, tenancy, registry, live server.

Layered like the package itself: pure-function tests for the wire
protocol and the WebSocket codec, deterministic unit tests for admission
control (injected clocks, fake futures) and the session registry, then
end-to-end tests against a real server on an ephemeral port — including
the acceptance contracts: served responses byte-identical to direct
session-API calls, warm result-cache hits that never touch the engine,
quota breaches answered with 429 (never a hang), and shed executions
cancelled through the ExecutionControl seam with ``reason="shed"``.
"""

import contextlib
import threading
import time

import numpy as np
import pytest

from repro import SessionRegistry, ShapeSearch, temporary_udp
from repro.data.table import Table
from repro.data.visual_params import VisualParams
from repro.errors import DataError, ExecutionError, SearchCancelled
from repro.serving import (
    AdmissionController,
    Overloaded,
    RequestError,
    ResultCache,
    ServingClient,
    ServingError,
    ShapeServingApp,
    TenantQuota,
    TokenBucket,
    json_dumps,
    result_payload,
    start_in_thread,
)
from repro.serving.protocol import (
    error_response,
    params_from_body,
    search_k,
    table_from_body,
)
from repro.serving.ws import (
    OP_BINARY,
    OP_CONT,
    OP_PING,
    OP_TEXT,
    FrameParser,
    ProtocolError,
    accept_key,
    encode_frame,
)


def _columns(groups=6, length=20, seed=3):
    rng = np.random.default_rng(seed)
    zs, xs, ys = [], [], []
    for g in range(groups):
        values = rng.normal(0, 1, length).cumsum()
        for i, v in enumerate(values):
            zs.append("g{:02d}".format(g))
            xs.append(float(i))
            ys.append(float(v))
    return {"z": zs, "x": xs, "y": ys}


def _reference_bytes(columns, query, k=10):
    """What a direct session-API call encodes to, byte for byte."""
    table = Table.from_arrays(**columns)
    with ShapeSearch(table) as session:
        results = session.prepare(query, z="z", x="x", y="y").run(k=k)
        return json_dumps(result_payload(results))


@contextlib.contextmanager
def _serving(app=None, tenant="default", **app_kwargs):
    app = app if app is not None else ShapeServingApp(**app_kwargs)
    handle = start_in_thread(app)
    client = ServingClient(*handle.address, tenant=tenant)
    try:
        yield handle, client
    finally:
        client.close()
        handle.stop()


class TestProtocol:
    def test_json_dumps_is_canonical(self):
        payload = json_dumps({"b": np.float64(1.5), "a": np.int64(2)})
        assert payload == b'{"a":2,"b":1.5}'
        assert json_dumps({"v": np.array([1.0, 2.0])}) == b'{"v":[1.0,2.0]}'
        with pytest.raises(TypeError):
            json_dumps({"x": object()})

    def test_error_mapping(self):
        status, body = error_response(Overloaded("rate_limited"))
        assert status == 429 and body["error"]["code"] == "rate_limited"
        status, body = error_response(RequestError(404, "unknown_table", "gone"))
        assert status == 404 and body["error"]["code"] == "unknown_table"
        status, body = error_response(SearchCancelled("stopped"))
        assert status == 409 and body["error"]["code"] == "cancelled"
        status, body = error_response(DataError("bad column"))
        assert status == 400 and body["error"]["code"] == "bad_request"

    def test_internal_errors_do_not_leak_messages(self):
        status, body = error_response(RuntimeError("secret stack detail"))
        assert status == 500
        assert body["error"]["code"] == "internal"
        assert "secret" not in body["error"]["message"]

    def test_search_k_validation(self):
        assert search_k({}) == 10
        assert search_k({"k": 3}) == 3
        for bad in (0, -1, True, "5", 2.5):
            with pytest.raises(DataError):
                search_k({"k": bad})

    def test_params_from_body(self):
        params = params_from_body(
            {"z": "z", "x": "x", "y": "y", "filters": "x > 1"}
        )
        assert isinstance(params, VisualParams)
        assert len(params.filters) == 1
        with pytest.raises(DataError):
            params_from_body({"z": "z", "x": "x"})  # y missing
        with pytest.raises(DataError):
            params_from_body({"z": "z", "x": "x", "y": "y", "filters": 7})

    def test_table_from_body(self):
        table = table_from_body({"columns": _columns(groups=2)})
        assert len(table) == 40
        table = table_from_body(
            {"records": [{"z": "a", "x": 0.0, "y": 1.0}]}
        )
        assert len(table) == 1
        for bad in ({}, {"columns": {}}, {"records": []}, {"columns": 3}):
            with pytest.raises(DataError):
                table_from_body(bad)


class TestWSCodec:
    def _roundtrip(self, payload, **kwargs):
        parser = FrameParser()
        frames = parser.feed(encode_frame(payload, **kwargs))
        assert len(frames) == 1
        return frames[0]

    def test_text_roundtrip_unmasked_and_masked(self):
        for mask in (None, b"\x01\x02\x03\x04"):
            opcode, payload = self._roundtrip(b'{"a":1}', mask=mask)
            assert opcode == OP_TEXT
            assert payload == b'{"a":1}'

    @pytest.mark.parametrize("size", [0, 125, 126, 200, 65535, 65536, 70000])
    def test_length_forms(self, size):
        blob = bytes(range(256)) * (size // 256 + 1)
        blob = blob[:size]
        opcode, payload = self._roundtrip(blob, opcode=OP_BINARY, mask=b"abcd")
        assert opcode == OP_BINARY
        assert payload == blob

    def test_byte_at_a_time_feeding(self):
        frame = encode_frame(b"streamed payload", mask=b"\xaa\xbb\xcc\xdd")
        parser = FrameParser()
        collected = []
        for index in range(len(frame)):
            collected.extend(parser.feed(frame[index:index + 1]))
        assert collected == [(OP_TEXT, b"streamed payload")]

    def test_fragmented_message_reassembles(self):
        first = encode_frame(b"hello ", opcode=OP_TEXT, fin=False)
        rest = encode_frame(b"world", opcode=OP_CONT, fin=True)
        parser = FrameParser()
        assert parser.feed(first) == []
        assert parser.feed(rest) == [(OP_TEXT, b"hello world")]

    def test_control_frames_interleave_with_fragments(self):
        parser = FrameParser()
        assert parser.feed(encode_frame(b"he", opcode=OP_TEXT, fin=False)) == []
        assert parser.feed(encode_frame(b"", opcode=OP_PING)) == [(OP_PING, b"")]
        assert parser.feed(encode_frame(b"llo", opcode=OP_CONT)) == [
            (OP_TEXT, b"hello")
        ]

    def test_fragmented_control_frame_is_a_protocol_error(self):
        parser = FrameParser()
        with pytest.raises(ProtocolError):
            parser.feed(encode_frame(b"x", opcode=OP_PING, fin=False))

    def test_unexpected_continuation_is_a_protocol_error(self):
        parser = FrameParser()
        with pytest.raises(ProtocolError):
            parser.feed(encode_frame(b"orphan", opcode=OP_CONT))

    def test_accept_key_rfc_vector(self):
        # The worked example from RFC 6455 section 1.3.
        assert (
            accept_key("dGhlIHNhbXBsZSBub25jZQ==")
            == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
        )


class _FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = _FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=clock)
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()  # burst exhausted
        clock.now += 0.5  # one token refilled at 2/s
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        clock = _FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        clock.now += 1000.0
        assert bucket.tokens == 3.0

    def test_zero_rate_never_refills(self):
        clock = _FakeClock()
        bucket = TokenBucket(rate=0.0, burst=1.0, clock=clock)
        assert bucket.try_acquire()
        clock.now += 1e6
        assert not bucket.try_acquire()

    def test_none_rate_always_admits(self):
        bucket = TokenBucket(rate=None, burst=1.0)
        assert all(bucket.try_acquire() for _ in range(1000))
        assert bucket.tokens == float("inf")

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=-1.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


class _FakeFuture:
    """running()/done()/cancel(reason=) — the slice admission touches."""

    def __init__(self, running=False):
        self._running = running
        self._done = False
        self.cancel_reason = None

    def running(self):
        return self._running and not self._done

    def done(self):
        return self._done

    def cancel(self, reason=None):
        if self._done:
            return False
        self._done = True
        self.cancel_reason = reason
        return True


class TestAdmissionController:
    def _controller(self, **kwargs):
        kwargs.setdefault("quota", TenantQuota(rate=None, max_inflight=2))
        kwargs.setdefault("max_inflight", 3)
        kwargs.setdefault("clock", _FakeClock())
        return AdmissionController(**kwargs)

    def test_per_tenant_inflight_cap(self):
        control = self._controller()
        assert control.admit("a") is None
        assert control.admit("a") is None
        assert control.admit("a") == "overloaded"
        control.finish("a")
        assert control.admit("a") is None

    def test_global_cap_spans_tenants(self):
        control = self._controller()
        for tenant in ("a", "a", "b"):
            assert control.admit(tenant) is None
        assert control.admit("c") == "overloaded"
        control.finish("b")
        assert control.admit("c") is None

    def test_rate_limit_code(self):
        clock = _FakeClock()
        control = AdmissionController(
            quota=TenantQuota(rate=0.0, burst=1.0, max_inflight=8),
            clock=clock,
        )
        assert control.admit("a") is None
        assert control.admit("a") == "rate_limited"
        assert control.admit("b") is None  # buckets are per tenant
        assert control.snapshot()["rate_limited"] == 1

    def test_overload_sheds_queued_not_running(self):
        control = self._controller()
        running = _FakeFuture(running=True)
        queued = _FakeFuture(running=False)
        control.admit("a")
        control.attach("a", running)
        control.admit("a")
        control.attach("a", queued)
        control.admit("b")  # third slot: global cap now full
        assert control.admit("b") == "overloaded"
        assert queued.done() and queued.cancel_reason == "shed"
        assert not running.done()  # running work is never shed
        assert control.snapshot()["shed"] == 1

    def test_tenant_cap_refusal_sheds_only_that_tenant(self):
        # Tenant "a" exceeding its *own* cap must not cancel tenant
        # "b"'s admitted queued work: isolation means one tenant's
        # overload never becomes another's cancellation.
        control = self._controller(max_inflight=10)
        queued_a, queued_b = _FakeFuture(), _FakeFuture()
        control.admit("a")
        control.attach("a", queued_a)
        control.admit("a")  # tenant cap (2) now full
        control.admit("b")
        control.attach("b", queued_b)
        assert control.admit("a") == "overloaded"
        assert queued_a.done() and queued_a.cancel_reason == "shed"
        assert not queued_b.done()
        assert control.snapshot()["shed"] == 1

    def test_global_cap_refusal_sheds_across_tenants(self):
        control = self._controller()  # global cap 3
        queued = _FakeFuture()
        control.admit("a")
        control.attach("a", queued)
        control.admit("a")
        control.admit("b")  # global cap now full
        assert control.admit("c") == "overloaded"
        assert queued.done() and queued.cancel_reason == "shed"

    def test_overload_refusal_consumes_no_rate_token(self):
        # Caps are checked before the bucket: a sustained overload must
        # not drain the tenant's tokens, or it would be rate_limited the
        # moment capacity frees up.
        clock = _FakeClock()
        control = AdmissionController(
            quota=TenantQuota(rate=0.0, burst=2.0, max_inflight=1),
            clock=clock,
        )
        assert control.admit("a") is None  # first token
        for _ in range(5):
            assert control.admit("a") == "overloaded"
        control.finish("a")
        assert control.admit("a") is None  # second token survived the storm
        control.finish("a")
        assert control.admit("a") == "rate_limited"  # bucket genuinely empty
        assert control.snapshot()["overloaded"] == 5

    def test_sweep_cancels_everything(self):
        control = self._controller()
        futures = [_FakeFuture(running=True), _FakeFuture()]
        for future in futures:
            control.admit("a")
            control.attach("a", future)
        assert control.sweep("shutdown") == 2
        assert all(f.cancel_reason == "shutdown" for f in futures)

    def test_finish_removes_future_by_identity(self):
        control = self._controller()
        future = _FakeFuture()
        control.admit("a")
        control.attach("a", future)
        control.finish("a", future)
        assert control.sweep() == 0
        assert control.total_inflight == 0

    def test_set_quota_overrides_one_tenant(self):
        control = self._controller()
        control.set_quota("vip", TenantQuota(rate=None, max_inflight=3))
        assert control.quota_for("vip").max_inflight == 3
        assert control.quota_for("anyone").max_inflight == 2


class TestSessionRegistry:
    def _table(self, seed):
        return Table.from_arrays(**{
            name: np.asarray(values, dtype=object if name == "z" else None)
            for name, values in _columns(groups=2, seed=seed).items()
        })

    def test_publish_is_idempotent(self):
        with SessionRegistry(capacity=4) as registry:
            first = registry.publish(self._table(seed=1))
            second = registry.publish(self._table(seed=1))
            assert first == second
            assert len(registry) == 1
            assert registry.get(first) is registry.get(second)

    def test_lru_eviction_closes_and_notifies(self):
        evicted = []
        with SessionRegistry(capacity=2) as registry:
            registry.add_evict_hook(
                lambda fingerprint, session: evicted.append(fingerprint)
            )
            fps = [registry.publish(self._table(seed=s)) for s in (1, 2)]
            registry.get(fps[0])  # promote: fps[1] is now the LRU
            registry.publish(self._table(seed=3))
            assert evicted == [fps[1]]
            assert fps[0] in registry and fps[1] not in registry

    def test_get_unknown_fingerprint_raises(self):
        with SessionRegistry() as registry:
            with pytest.raises(DataError, match="publish the table first"):
                registry.get("no-such-fingerprint")
            with pytest.raises(DataError, match="publish the table first"):
                registry.checkout("no-such-fingerprint")

    def test_eviction_of_leased_session_defers_close(self):
        evicted = []
        with SessionRegistry(capacity=1) as registry:
            registry.add_evict_hook(lambda fp, session: evicted.append(fp))
            first = registry.publish(self._table(seed=1))
            session = registry.checkout(first)
            registry.publish(self._table(seed=2))  # evicts first, leased
            assert first not in registry
            assert evicted == []  # close deferred: the lease is live
            # The leased session still serves work mid-drain.
            results = session.prepare("[p=up]", z="z", x="x", y="y").run(k=2)
            assert len(results) >= 0
            registry.release(session)
            assert evicted == [first]

    def test_nested_leases_close_on_last_release(self):
        evicted = []
        with SessionRegistry(capacity=1) as registry:
            registry.add_evict_hook(lambda fp, session: evicted.append(fp))
            first = registry.publish(self._table(seed=1))
            session = registry.checkout(first)
            assert registry.checkout(first) is session
            registry.publish(self._table(seed=2))
            registry.release(session)
            assert evicted == []  # one lease still live
            registry.release(session)
            assert evicted == [first]
        registry.release(None)  # tolerated, for unconditional finallys

    def test_close_drains_leased_sessions(self):
        evicted = []
        registry = SessionRegistry(capacity=2)
        registry.add_evict_hook(lambda fp, session: evicted.append(fp))
        fingerprint = registry.publish(self._table(seed=1))
        session = registry.checkout(fingerprint)
        registry.close()
        assert evicted == []  # shutdown waits for the in-flight lease
        with pytest.raises(ExecutionError):
            registry.publish(self._table(seed=2))
        registry.release(session)
        assert evicted == [fingerprint]

    def test_close_evicts_all_and_blocks_publish(self):
        evicted = []
        registry = SessionRegistry(capacity=4)
        registry.add_evict_hook(lambda fp, session: evicted.append(fp))
        registry.publish(self._table(seed=1))
        registry.close()
        assert len(evicted) == 1 and len(registry) == 0
        with pytest.raises(ExecutionError):
            registry.publish(self._table(seed=2))

    def test_hook_errors_are_swallowed(self):
        with SessionRegistry(capacity=1) as registry:
            registry.add_evict_hook(lambda fp, session: 1 / 0)
            registry.publish(self._table(seed=1))
            registry.publish(self._table(seed=2))  # eviction must not raise
            assert len(registry) == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SessionRegistry(capacity=0)


class TestResultCacheKeying:
    PARAMS = VisualParams(z="z", x="x", y="y")

    def test_every_component_is_load_bearing(self):
        base = ResultCache.key("fp", "[p=up]", self.PARAMS, 10, "float64")
        assert base == ResultCache.key("fp", "[p=up]", self.PARAMS, 10, "float64")
        variants = [
            ResultCache.key("other", "[p=up]", self.PARAMS, 10, "float64"),
            ResultCache.key("fp", "[p=down]", self.PARAMS, 10, "float64"),
            ResultCache.key(
                "fp", "[p=up]", VisualParams(z="z", x="x", y="y", aggregate="sum"),
                10, "float64",
            ),
            ResultCache.key("fp", "[p=up]", self.PARAMS, 5, "float64"),
            ResultCache.key("fp", "[p=up]", self.PARAMS, 10, "float32"),
        ]
        assert len({base, *variants}) == len(variants) + 1

    def test_round_trip_and_snapshot(self):
        cache = ResultCache(capacity=2, max_bytes=1024)
        key = ResultCache.key("fp", "[p=up]", self.PARAMS, 10, "float64")
        assert cache.get(key) is None
        cache.put(key, b'{"matches":[]}')
        assert cache.get(key) == b'{"matches":[]}'
        snapshot = cache.snapshot()
        assert snapshot["entries"] == 1
        assert snapshot["bytes"] == len(b'{"matches":[]}')
        assert snapshot["hits"] == 1 and snapshot["misses"] == 1


class TestServerEndToEnd:
    QUERY = "[p=up][p=down]"

    def test_search_bytes_identical_to_session_api(self):
        columns = _columns()
        with _serving() as (handle, client):
            fingerprint = client.publish_columns(**columns)
            prepared = client.prepare(fingerprint, self.QUERY, "z", "x", "y", k=5)
            assert prepared["table"] == fingerprint
            assert "Score" in prepared["plan"] or prepared["plan"]
            response = client.search(fingerprint, self.QUERY, "z", "x", "y", k=5)
            assert response["cache"] is None
            served = json_dumps(response["result"])
            assert served == _reference_bytes(columns, self.QUERY, k=5)

    def test_warm_hit_skips_the_engine_entirely(self):
        with _serving() as (handle, client):
            fingerprint = client.publish_columns(**_columns())
            cold = client.search(fingerprint, self.QUERY, "z", "x", "y", k=5)
            admitted_after_cold = handle.app.admission.snapshot()["admitted"]
            warm = client.search(fingerprint, self.QUERY, "z", "x", "y", k=5)
            assert warm["cache"] == "result"
            assert json_dumps(warm["result"]) == json_dumps(cold["result"])
            snapshot = handle.app.admission.snapshot()
            # The warm hit consumed no admission slot: the engine (and
            # its Score stage) never saw the second request.
            assert snapshot["admitted"] == admitted_after_cold
            assert handle.app.result_cache.snapshot()["hits"] == 1

    def test_publish_is_idempotent_over_the_wire(self):
        columns = _columns()
        with _serving() as (handle, client):
            assert client.publish_columns(**columns) == client.publish_columns(
                **columns
            )
            assert len(handle.app.registry) == 1

    def test_unknown_table_is_404(self):
        with _serving() as (handle, client):
            with pytest.raises(ServingError) as excinfo:
                client.search("feedfacedeadbeef", self.QUERY, "z", "x", "y")
            assert excinfo.value.status == 404
            assert excinfo.value.code == "unknown_table"

    def test_bad_query_and_bad_request_are_400(self):
        with _serving() as (handle, client):
            fingerprint = client.publish_columns(**_columns(groups=2))
            with pytest.raises(ServingError) as excinfo:
                client.search(fingerprint, "[p=", "z", "x", "y")
            assert excinfo.value.status == 400
            assert excinfo.value.code == "bad_query"
            with pytest.raises(ServingError) as excinfo:
                client.search(fingerprint, self.QUERY, "z", "x", "nope")
            assert excinfo.value.status == 400
            with pytest.raises(ServingError) as excinfo:
                client.request("POST", "/v1/search", {"table": fingerprint})
            assert excinfo.value.status == 400

    def test_unrouted_path_is_404(self):
        with _serving() as (handle, client):
            with pytest.raises(ServingError) as excinfo:
                client.request("GET", "/v2/nope")
            assert excinfo.value.status == 404
            assert excinfo.value.code == "not_found"

    def test_rate_limit_is_429_rate_limited(self):
        # rate=0, burst=1: exactly one admission, ever — deterministic.
        app = ShapeServingApp(
            quota=TenantQuota(rate=0.0, burst=1.0, max_inflight=8)
        )
        with _serving(app) as (handle, client):
            fingerprint = client.publish_columns(**_columns(groups=2))
            client.search(fingerprint, "[p=up]", "z", "x", "y", k=2)
            with pytest.raises(ServingError) as excinfo:
                # A different query: the result cache must not mask the
                # refusal, and the bucket is already empty.
                client.search(fingerprint, "[p=down]", "z", "x", "y", k=2)
            assert excinfo.value.status == 429
            assert excinfo.value.code == "rate_limited"
            # Cached results stay served even while rate-limited: a hit
            # consumes no token.
            warm = client.search(fingerprint, "[p=up]", "z", "x", "y", k=2)
            assert warm["cache"] == "result"

    def test_overload_is_429_and_sheds_queued_ws_search(self):
        gate = threading.Event()

        def blocking(values, slope):
            assert gate.wait(timeout=60)
            return 0.5

        app = ShapeServingApp(
            quota=TenantQuota(rate=None, max_inflight=8), max_inflight=3
        )
        with _serving(app) as (handle, client):
            fingerprint = client.publish_columns(**_columns(groups=3))
            with temporary_udp("serve_gate", blocking):
                with client.open_stream() as stream:
                    # Two searches run on the engine's drivers; the third
                    # is admitted but still queued behind the dispatcher.
                    sids = [
                        stream.submit(
                            fingerprint, "[p=udp:serve_gate]", "z", "x", "y",
                            k=2, search_id="s{}".format(index),
                        )
                        for index in range(3)
                    ]
                    for sid in sids:
                        frame = stream.next_frame(sid)
                        assert frame["type"] == "accepted"
                    # Wait until both driver threads have actually picked
                    # up their executions: a future only reports
                    # running() once its driver starts it, and the shed
                    # sweep must see exactly one queued (not-running)
                    # future — racing ahead would shed all three.
                    deadline = time.monotonic() + 10.0
                    while handle.app.admission.snapshot()["running"] < 2:
                        assert time.monotonic() < deadline, "drivers never started"
                        time.sleep(0.005)
                    # Admission is full: the HTTP request is refused
                    # immediately (never hangs) and the queued WS search
                    # is shed with reason="shed".
                    with pytest.raises(ServingError) as excinfo:
                        client.search(fingerprint, "[p=up]", "z", "x", "y", k=2)
                    assert excinfo.value.status == 429
                    assert excinfo.value.code == "overloaded"
                    with pytest.raises(ServingError) as shed_info:
                        stream.result(sids[2])
                    assert shed_info.value.code == "overloaded"
                    assert handle.app.admission.snapshot()["shed"] == 1
                    gate.set()  # survivors complete with real results
                    for sid in sids[:2]:
                        terminal = stream.result(sid)
                        assert terminal["type"] == "result"
                        assert terminal["result"]["matches"]

    def test_ws_progress_cancel_and_byte_identity(self):
        columns = _columns()
        with _serving() as (handle, client):
            fingerprint = client.publish_columns(**columns)

            gate = threading.Event()

            def blocking(values, slope):
                assert gate.wait(timeout=60)
                return 0.5

            with temporary_udp("serve_cancel", blocking):
                with client.open_stream() as stream:
                    sid = stream.submit(
                        fingerprint, "[p=udp:serve_cancel]", "z", "x", "y", k=2
                    )
                    assert stream.next_frame(sid)["type"] == "accepted"
                    stream.cancel(sid)
                    # Frames are handled in order: once the pong is back
                    # the server has applied the cancel, so opening the
                    # gate cannot let the search finish ahead of it.
                    stream._send_json({"type": "ping"})
                    while not stream._loose:
                        stream._recv_some()
                    gate.set()  # unblock shards so the cancel lands
                    terminal = stream.result(sid)
                    assert terminal["type"] == "cancelled"
                    assert terminal["reason"] == "user"

            # The session remains healthy after the cancel, and the
            # streamed result is byte-identical to the HTTP (and thus
            # direct session-API) encoding of the same search.
            with client.open_stream() as stream:
                sid = stream.submit(fingerprint, self.QUERY, "z", "x", "y", k=5)
                frames = list(stream.frames(sid))
                assert frames[0]["type"] == "accepted"
                progress = [f for f in frames if f["type"] == "progress"]
                assert progress
                assert progress[-1]["completed"] == progress[-1]["total"]
                assert frames[-1]["type"] == "result"
                streamed = json_dumps(frames[-1]["result"])
            http_response = client.search(fingerprint, self.QUERY, "z", "x", "y", k=5)
            assert streamed == json_dumps(http_response["result"])
            assert streamed == _reference_bytes(columns, self.QUERY, k=5)

    def test_many_concurrent_ws_sessions(self):
        columns = _columns(groups=4)
        reference = _reference_bytes(columns, self.QUERY, k=3)
        sessions = 32
        # Neither cap may refuse: every session is one tenant's, and how
        # many are in flight before the first result is cached is a race.
        quota = TenantQuota(rate=None, max_inflight=sessions + 4)
        with _serving(max_inflight=sessions + 4, quota=quota) as (handle, client):
            fingerprint = client.publish_columns(**columns)
            results = [None] * sessions
            errors = []

            def worker(index):
                try:
                    with client.open_stream() as stream:
                        sid = stream.submit(
                            fingerprint, self.QUERY, "z", "x", "y", k=3
                        )
                        terminal = stream.result(sid)
                        results[index] = json_dumps(terminal["result"])
                except Exception as exc:  # surfaced below, with context
                    errors.append((index, repr(exc)))

            threads = [
                threading.Thread(target=worker, args=(index,))
                for index in range(sessions)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors, errors
            assert all(payload == reference for payload in results)
            # The terminal frame is written before the handler's finally
            # records the request, so give the counters a moment.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                stats = handle.app.stats.snapshot()
                if stats["WS /v1/submit"]["count"] == sessions:
                    break
                time.sleep(0.01)
            assert stats["WS /v1/submit"]["count"] == sessions

    def test_ws_protocol_errors_get_error_frames(self):
        with _serving() as (handle, client):
            fingerprint = client.publish_columns(**_columns(groups=2))
            with client.open_stream() as stream:
                stream._send_json({"type": "warp", "id": 1})
                frame = stream.next_frame(1)
                assert frame["type"] == "error"
                assert frame["code"] == "bad_request"
                sid = stream.submit(fingerprint, "[p=", "z", "x", "y")
                with pytest.raises(ServingError) as excinfo:
                    stream.result(sid)
                assert excinfo.value.code == "bad_query"
                sid = stream.submit("not-published", "[p=up]", "z", "x", "y")
                with pytest.raises(ServingError) as excinfo:
                    stream.result(sid)
                assert excinfo.value.code == "unknown_table"

    def test_ws_duplicate_active_search_id_is_rejected(self):
        gate = threading.Event()

        def blocking(values, slope):
            assert gate.wait(timeout=60)
            return 0.5

        with _serving() as (handle, client):
            fingerprint = client.publish_columns(**_columns(groups=2))
            with temporary_udp("serve_dup", blocking):
                with client.open_stream() as stream:
                    sid = stream.submit(
                        fingerprint, "[p=udp:serve_dup]", "z", "x", "y",
                        k=2, search_id="dup",
                    )
                    assert stream.next_frame(sid)["type"] == "accepted"
                    # Reusing an id that is still active collides with
                    # the running search's registration: refused.
                    stream.submit(
                        fingerprint, "[p=udp:serve_dup]", "z", "x", "y",
                        k=2, search_id="dup",
                    )
                    while True:  # progress frames may interleave
                        frame = stream.next_frame(sid)
                        if frame["type"] != "progress":
                            break
                    assert frame["type"] == "error"
                    assert frame["code"] == "bad_request"
                    assert "already active" in frame["message"]
                    gate.set()
                    terminal = stream.result(sid)  # survivor unaffected
                    assert terminal["type"] == "result"
                    # After the terminal frame the id is free again.
                    stream.submit(
                        fingerprint, "[p=udp:serve_dup]", "z", "x", "y",
                        k=2, search_id="dup",
                    )
                    assert stream.result(sid)["type"] == "result"

    def test_unrouted_paths_share_one_stats_entry(self):
        # Unique 404 paths must not each grow a stats entry (unbounded
        # memory for an unauthenticated scanner): they pool under
        # "other" and routed endpoints keep their own labels.
        with _serving() as (handle, client):
            for index in range(8):
                with pytest.raises(ServingError):
                    client.request("GET", "/v2/scan-{}".format(index))
            endpoints = handle.app.stats.snapshot()
            assert "other" in endpoints
            assert endpoints["other"]["count"] == 8
            assert endpoints["other"]["errors"] == 8
            assert not any(name.startswith("/v2/") for name in endpoints)

    def test_stats_endpoint_shape(self):
        with _serving() as (handle, client):
            fingerprint = client.publish_columns(**_columns(groups=2))
            client.search(fingerprint, "[p=up]", "z", "x", "y", k=2)
            client.search(fingerprint, "[p=up]", "z", "x", "y", k=2)
            stats = client.stats()
            assert stats["protocol"] == 1
            search = stats["endpoints"]["/v1/search"]
            assert search["count"] == 2 and search["errors"] == 0
            assert search["p99_ms"] >= search["p50_ms"] >= 0.0
            assert stats["admission"]["admitted"] == 1  # one warm hit
            assert stats["result_cache"]["hits"] == 1
            assert stats["registry"]["sessions"] == 1
            assert fingerprint in stats["registry"]["fingerprints"]

    def test_eviction_prunes_artifact_store_to_budget(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_BUDGET", "0")
        store = tmp_path / "artifacts"
        app = ShapeServingApp(
            registry_capacity=1,
            session_options={"index": True, "store": str(store)},
        )
        with _serving(app) as (handle, client):
            # 32+ groups: large enough for the engine's index path, so
            # the cold search persists an artifact worth pruning.
            first = client.publish_columns(**_columns(groups=32, length=24, seed=1))
            client.search(first, self.QUERY, "z", "x", "y", k=2)
            assert any(store.iterdir())  # the search persisted an index
            client.publish_columns(**_columns(groups=2, seed=2))  # evicts
            assert handle.app.last_prune is not None
            assert handle.app.last_prune["removed"] >= 1
            assert handle.app.last_prune["kept_bytes"] == 0
            assert not any(store.iterdir())
            assert client.stats()["artifact_prune"]["removed"] >= 1

    def test_tenants_are_isolated_by_header(self):
        app = ShapeServingApp(
            quota=TenantQuota(rate=0.0, burst=1.0, max_inflight=8)
        )
        with _serving(app, tenant="alpha") as (handle, client):
            fingerprint = client.publish_columns(**_columns(groups=2))
            client.search(fingerprint, "[p=up]", "z", "x", "y", k=2)
            with pytest.raises(ServingError):
                client.search(fingerprint, "[p=down]", "z", "x", "y", k=2)
            # A different tenant has its own untouched bucket.
            other = ServingClient(*handle.address, tenant="beta")
            try:
                response = other.search(fingerprint, "[p=down]", "z", "x", "y", k=2)
                assert response["result"]["matches"] is not None
            finally:
                other.close()
