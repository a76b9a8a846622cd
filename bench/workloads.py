"""The four workloads: cold set-up and the timed closed loop of each.

This module runs inside a *pass child* (``bench.child``): one fresh
process per pass, so no cache, pool or index survives from one pass to
the next and every pass does identical work.  It talks to ``repro``
only through its public surface — ``ShapeSearch``, ``prepare``/``run``,
``tail``/``append_rows``, the serving client — and carries no tracing
hooks: end-to-end numbers always come from this untraced code, the
layer numbers from ``bench.layers``.

Why these four (each sentence is also the ``why`` in BENCHMARK.json):

* ``adhoc_scan`` — every op pays parse, Extract/Group and a full DP over
  all candidates on a default session; Score and Extract/Group do the
  work, index, caches, shm and serving none.
* ``served_dashboard`` — two closed-loop clients against a server
  process; p50 is the serving tax on result-cache hits, p90 the indexed
  miss path, set-up carries publish and index build.
* ``scale_scan`` — prepared queries on the process backend with a
  pre-built artifact store; the only workload where IndexPrune, the shm
  transport and the worker pool do the work.
* ``tail_append`` — appends beside cold reads on one growing table; a
  gain for appends that costs fresh reads shows in p90.
"""

from __future__ import annotations

import contextlib
import csv
import json
import signal
import subprocess
import sys
import threading
import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple

from repro import ShapeSearch
from repro.nlp.tagger import EntityTagger
from repro.serving import ServingClient
from repro.sketch.parser import parse_sketch

from bench import serve

Z, X = "z", "x"

#: A single op may not take longer than this (a hung op is a failed op).
OP_TIMEOUT_S = 20.0

now = time.perf_counter_ns


def session_options(workload: str, spec: dict) -> dict:
    """The ``ShapeSearch`` options each workload's engine runs with."""
    if workload == "served_dashboard":
        return dict(serve.SESSION_OPTIONS)
    if workload == "scale_scan":
        return {"index": True, "cache": True, "workers": 2, "backend": "process",
                "store": spec["store"]}
    return {}


def to_query(query):
    """An op's query as ``prepare`` takes it: text as is, a sketch parsed."""
    if isinstance(query, dict):
        points = [tuple(point) for point in query["points"]]
        return parse_sketch(points, mode=query["mode"])
    return query


def rule_tagger() -> EntityTagger:
    """The lexicon tagger: the default CRF trains for ~a minute per process."""
    return EntityTagger(mode="rule")


def search(session: ShapeSearch, op: dict) -> list:
    """``prepare`` + ``run`` for one op (filters and bin width optional).

    Returns keys + scores + placements: what the oracle compares.
    """
    prepared = session.prepare(
        to_query(op["query"]), z=Z, x=X, y=op["y"], filters=op.get("filters", ()),
        bin_width=op.get("bin_width"),
    )
    return prepared.run(k=op["k"]).to_records()


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` of a process in MiB (this process by default)."""
    path = "/proc/{}/status".format("self" if pid is None else pid)
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in " + path)


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise ``TimeoutError`` in the main thread after ``seconds``."""

    def expire(_signum, _frame):
        raise TimeoutError("op exceeded {:.0f}s".format(seconds))

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def timed_loop(ops: List[dict], run_op: Callable[[dict], object],
               guard=deadline) -> Tuple[list, list]:
    """One client's closed loop: ``(latency_ns or None, record)`` per op.

    The next op starts when the previous one returned; an op that raises
    (or outlives ``OP_TIMEOUT_S``) is recorded as failed and the loop
    goes on, so one bad op costs one sample, not the pass.
    """
    latencies, results = [], []
    for op in ops:
        started = now()
        try:
            with guard(OP_TIMEOUT_S):
                result = run_op(op)
            latencies.append(now() - started)
        except Exception:  # the failure is the datum; keep the loop alive
            latencies.append(None)
            result = {"error": traceback.format_exc(limit=4)}
        results.append(result)
    return latencies, results


class Workload:
    """Set-up, one timed phase, teardown.  ``timed`` returns
    ``(latencies, results, wall_ns)`` with one entry per op."""

    def __init__(self, spec: dict, plan: dict):
        self.spec = spec
        self.plan = plan
        #: Everything set-up opens registers its release here, so a
        #: set-up that fails half-way still releases what it opened.
        self.resources = contextlib.ExitStack()

    def setup(self) -> None:
        raise NotImplementedError

    def timed(self) -> Tuple[list, list, int]:
        started = now()
        latencies, results = timed_loop(self.plan["ops"], self.run_op)
        return latencies, results, now() - started

    def run_op(self, op: dict):
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def extras(self) -> dict:
        """Facts about the pass the oracle wants beside the answers."""
        return {}

    def close(self) -> None:
        self.resources.close()


class AdhocScan(Workload):
    def setup(self) -> None:
        self.session = self.resources.enter_context(
            ShapeSearch.from_csv(self.spec["csv"], tagger=rule_tagger())
        )
        # Warm-up sweep: the first op of each distinct query, so the timed
        # phase meets no first-use import or lazily built lexicon state.
        seen = set()
        for op in self.plan["ops"]:
            text = json.dumps(op["query"], sort_keys=True)
            if text not in seen:
                seen.add(text)
                self.run_op(op)

    def run_op(self, op: dict):
        return search(self.session, op)


class ScaleScan(Workload):
    def setup(self) -> None:
        self.session = self.resources.enter_context(ShapeSearch.from_csv(
            self.spec["csv"], **session_options("scale_scan", self.spec)
        ))
        self.prepared = {}
        for op in self.plan["ops"]:
            key = (op["query"], op["y"])
            if key not in self.prepared:
                self.prepared[key] = self.session.prepare(
                    op["query"], z=Z, x=X, y=op["y"]
                )
        # Warm-up sweep: every distinct query once and every y column once.
        # That starts the pool, maps the stored indexes, fills the trendline
        # cache and publishes each collection and compiled query to shm.
        self.index_sources = []
        warmed = set()
        for (query, y), prepared in self.prepared.items():
            if query not in warmed or y not in warmed:
                warmed.update((query, y))
                self.index_sources.append(prepared.run(k=10).index_source)

    def run_op(self, op: dict):
        return self.prepared[(op["query"], op["y"])].run(k=op["k"]).to_records()

    def extras(self) -> dict:
        return {"index_sources": sorted({str(s) for s in self.index_sources})}


class TailAppend(Workload):
    def setup(self) -> None:
        self.session = self.resources.enter_context(
            ShapeSearch.from_csv(self.spec["csv"])
        )
        tail = self.plan["tail"]
        self.tail = self.session.tail(tail["query"], z=Z, x=X, y=tail["y"], k=tail["k"])
        # Warm-up sweep: one cold read per distinct query (appends would
        # move the table, so they are left to the timed phase).
        reads = {op["query"]: op for op in self.plan["ops"] if op["type"] == "read"}
        for op in reads.values():
            self.run_op(op)

    def run_op(self, op: dict):
        if op["type"] == "append":
            refreshed = self.tail.append_rows(op["rows"])
            return {"revision": refreshed.revision, "matches": refreshed.to_records()}
        # A read is a cold search over the grown table: it pays for
        # whatever state the appends before it invalidated.
        with ShapeSearch(self.tail.table) as fresh:
            return {"matches": search(fresh, op)}


def read_columns(path: str) -> Dict[str, list]:
    """The CSV as JSON-ready column lists (what ``POST /v1/tables`` takes)."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = list(reader)
    columns: Dict[str, list] = {}
    for index, name in enumerate(header):
        values = [row[index] for row in rows]
        columns[name] = values if name in (Z, "region") else [float(v) for v in values]
    return columns


class ServerProcess:
    """``bench.serve`` as a child process; stopped by closing its stdin."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "bench.serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.process.stdout.readline()
        if not line.startswith("PORT "):
            self.stop()
            raise RuntimeError("server did not start: {!r}".format(line))
        self.address = ("127.0.0.1", int(line.split()[1]))
        self.pid = self.process.pid

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.process.stdin.close()
                self.process.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class ServedDashboard(Workload):
    """Client 0 on ``POST /v1/search``, client 1 on a ``WS /v1/submit`` stream."""

    def setup(self) -> None:
        self.server = ServerProcess()
        self.resources.callback(self.server.stop)
        self.http = self.resources.enter_context(ServingClient(
            *self.server.address, tenant="bench-http", timeout=OP_TIMEOUT_S
        ))
        self.fingerprint = self.http.publish_columns(**read_columns(self.spec["csv"]))
        # Warm-up sweep: one search per y column builds its index (k=3 is
        # outside the op key space), then every hot key fills the result
        # cache the timed phase will hit.
        for y in ("y1", "y2", "y3"):
            self.search_http({"query": self.plan["hot"][0]["query"], "y": y, "k": 3})
        for op in self.plan["hot"]:
            self.search_http(op)
        self.stream = self.resources.enter_context(ServingClient(
            *self.server.address, tenant="bench-ws", timeout=OP_TIMEOUT_S
        ).open_stream())

    def search_http(self, op: dict) -> dict:
        return self.http.search(self.fingerprint, op["query"], Z, X, op["y"], k=op["k"])

    def search_ws(self, op: dict) -> dict:
        sid = self.stream.submit(self.fingerprint, op["query"], Z, X, op["y"], k=op["k"])
        return self.stream.result(sid)

    @staticmethod
    def _answer(op: dict, response: dict) -> dict:
        if response.get("type", "result") != "result":
            raise RuntimeError("terminal frame {!r}".format(response.get("type")))
        hit = response["cache"] == "result"
        if hit != op["hot"]:
            raise RuntimeError("expected a cache {}".format("hit" if op["hot"] else "miss"))
        return {"matches": response["result"]["matches"]}

    def timed(self) -> Tuple[list, list, int]:
        clients = [
            (self.plan["clients"]["http"], self.search_http),
            (self.plan["clients"]["ws"], self.search_ws),
        ]
        outcome: List[Optional[tuple]] = [None] * len(clients)
        barrier = threading.Barrier(len(clients) + 1)

        def client(slot: int, ops: list, search) -> None:
            barrier.wait()
            # Socket timeouts bound each op here: SIGALRM only reaches
            # the main thread.
            outcome[slot] = timed_loop(
                ops, lambda op: self._answer(op, search(op)),
                guard=lambda _s: contextlib.nullcontext(),
            )

        threads = [
            threading.Thread(target=client, args=(slot, ops, search))
            for slot, (ops, search) in enumerate(clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = now()
        for thread in threads:
            thread.join()
        wall = now() - started
        latencies = [lat for part in outcome for lat in part[0]]
        results = [res for part in outcome for res in part[1]]
        return latencies, results, wall

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.server.pid)


WORKLOADS = {
    "adhoc_scan": AdhocScan,
    "served_dashboard": ServedDashboard,
    "scale_scan": ScaleScan,
    "tail_append": TailAppend,
}


def client_slices(plan: dict) -> List[Tuple[int, int]]:
    """``[start, stop)`` of each client's ops within :func:`flat_ops`."""
    if "clients" not in plan:
        return [(0, len(plan["ops"]))]
    first = len(plan["clients"]["http"])
    return [(0, first), (first, first + len(plan["clients"]["ws"]))]


def flat_ops(plan: dict) -> List[dict]:
    """The ops in the order ``timed`` reports them."""
    if "clients" in plan:
        return plan["clients"]["http"] + plan["clients"]["ws"]
    return plan["ops"]
