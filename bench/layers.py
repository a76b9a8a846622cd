"""The traced run: per-layer metrics, measured from outside the program.

Runs in one fresh child (``bench.child`` with ``mode: "trace"``), after
the same cold set-up a timed pass does, in two parts:

* **Replay** — the first ops of the workload, run on a session opened
  with the workload's own options.  Each op runs untraced through the
  public API and traced operator by operator (``plan_pipeline`` →
  ``operator.run``), three times each in alternation; the answers must
  match, the ``api.*`` / ``pipeline.*`` / ``cache.*`` metrics come from
  the traced spans, and traced ÷ untraced time is the tracing overhead.
* **Battery** — every layer called directly on this workload's table
  with one fixed probe query, *whether or not the workload's own path
  uses that layer*: kernels, shape index, artifact store, process pool
  and shm, streaming tail, serving.  So ``shape_index.build_ms`` exists
  for ``adhoc_scan`` too: it is what that layer costs on that data.

``UNITS`` is the list of per-layer metrics; BENCHMARK.json's
``per_layer`` mirrors it (bench/test_smoke.py keeps the two in step).
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro import ShapeSearch, Table, parse_query
from repro.data.visual_params import VisualParams
from repro.engine.artifacts import load_index, save_index
from repro.engine.cache import table_fingerprint
from repro.engine.chains import compile_query
from repro.engine.dynamic import solve_query_extend
from repro.engine.executor import ExecutionStats
from repro.engine.parallel import solve_one
from repro.engine.pipeline import (
    PipelineContext,
    generate_trendlines,
    plan_pipeline,
    query_constrains_y,
)
from repro.engine.shape_index import ShapeIndex, prune_candidates
from repro.engine.trendline import build_trendline
from repro.nlp.tagger import EntityTagger
from repro.nlp.translator import translate
from repro.parser import parse as parse_regex
from repro.results import ResultSet
from repro.serving import ServingClient, ShapeServingApp, start_in_thread
from repro.serving.protocol import json_dumps, result_payload
from repro.serving.ws import FrameParser, encode_frame

from bench import calibrate, gen, serve
from bench.trace import Tracer, duration_ms, median_ms, now, self_times_ms
from bench.workloads import (
    X,
    Z,
    flat_ops,
    peak_rss_mb,
    read_columns,
    rule_tagger,
    search,
    session_options,
    to_query,
)

#: Ops replayed per workload, and how often each side repeats them.
REPLAY_OPS = 20
REPEATS = 3
#: ``tail_append`` replays its reads (cold full scans): fewer, to stay in budget.
REPLAY_READS = 8

#: The battery's one probe: an indexable three-segment shape on ``y1``.
PROBE = {"query": gen.INDEXED_SHAPES[2], "y": "y1", "k": 10}

UNITS = {
    "process.host_speed": "ratio",
    "process.import_s": "s",
    "table.from_csv_s": "s",
    "table.append_rows_ms": "ms",
    "table.fingerprint_ms": "ms",
    "parser.parse_ms": "ms",
    "nlp.translate_ms": "ms",
    "sketch.parse_ms": "ms",
    "chains.compile_ms": "ms",
    "api.prepare_ms": "ms",
    "api.run_ms": "ms",
    "pipeline.plan_ms": "ms",
    "pipeline.ScanTable_ms": "ms",
    "pipeline.ExtractGroup_ms": "ms",
    "pipeline.IndexPrune_ms": "ms",
    "pipeline.Score_ms": "ms",
    "pipeline.MergeTopK_ms": "ms",
    "pipeline.score_share": "ratio",
    "pipeline.candidates": "count",
    "pipeline.scored": "count",
    "pipeline.eager_discarded": "count",
    "pipeline.shards": "count",
    "pipeline.generate_trendlines_ms": "ms",
    "pipeline.trendlines_per_s": "1/s",
    "dynamic.solve_query_ms": "ms",
    "dynamic.solve_query_extend_ms": "ms",
    "shape_index.build_ms": "ms",
    "shape_index.prune_ms": "ms",
    "shape_index.pruned_ratio": "ratio",
    "shape_index.exact_ratio": "ratio",
    "shape_index.source_memory_ratio": "ratio",
    "artifacts.save_ms": "ms",
    "artifacts.load_ms": "ms",
    "artifacts.disk_bytes": "bytes",
    "cache.trendline_hit_rate": "ratio",
    "cache.plan_hit_rate": "ratio",
    "parallel.first_dispatch_s": "s",
    "parallel.worker_peak_rss_mb": "MiB",
    "shm.segment_bytes": "bytes",
    "api.tail_open_s": "s",
    "api.tail_refresh_ms": "ms",
    "api.tail_prescore_ms": "ms",
    "api.tail_score_ms": "ms",
    "api.tail_merge_ms": "ms",
    "api.tail_rescored_groups": "count",
    "api.tail_state_bytes": "bytes",
    "serving.app.publish_s": "s",
    "serving.http.hit_roundtrip_ms": "ms",
    "serving.ws.hit_roundtrip_ms": "ms",
    "serving.app.miss_roundtrip_ms": "ms",
    "serving.app.miss_overhead_ms": "ms",
    "serving.app.server_search_p50_ms": "ms",
    "serving.protocol.dumps_ms": "ms",
    "serving.protocol.response_bytes": "bytes",
    "serving.ws.codec_us": "us",
    "serving.result_cache.hit_rate": "ratio",
    "serving.tenancy.admitted": "count",
    "serving.tenancy.refused": "count",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}

#: Span names of the traced replay; each yields a ``<name>_ms`` metric
#: (0.0 where the workload's plan has no such operator).
REPLAY_SPANS = (
    "api.prepare", "api.run", "pipeline.plan", "pipeline.ScanTable",
    "pipeline.ExtractGroup", "pipeline.IndexPrune", "pipeline.Score",
    "pipeline.MergeTopK",
)
TAIL_SPANS = ("api.tail_refresh", "api.tail_prescore", "api.tail_score", "api.tail_merge")

#: Printed only with ``--crf``: the CRF tagger trains for about a minute
#: in every process that first uses it, which no run under the driver's
#: time cap can afford.
CRF_UNITS = {"nlp.crf_cold_load_s": "s", "nlp.crf_translate_ms": "ms"}


def timed_ms(call: Callable[..., object], *args, **kwargs) -> Tuple[float, object]:
    """``(elapsed ms, result)`` of ``call(*args, **kwargs)``."""
    started = now()
    value = call(*args, **kwargs)
    return (now() - started) / 1e6, value


def median_ms_of(repeats: int, call: Callable[..., object], *args) -> float:
    return statistics.median(timed_ms(call, *args)[0] for _ in range(repeats))


# ---------------------------------------------------------------------------
# Replay: the workload's own ops, untraced and operator by operator
# ---------------------------------------------------------------------------


def replay_ops(workload: str, plan: dict) -> List[dict]:
    if workload == "tail_append":
        reads = [op for op in plan["ops"] if op["type"] == "read"]
        return reads[:REPLAY_READS]
    return flat_ops(plan)[:REPLAY_OPS]


def _params(op: dict) -> VisualParams:
    return VisualParams(z=Z, x=X, y=op["y"], filters=tuple(op.get("filters", ())),
                        bin_width=op.get("bin_width"))


def _front_end(query) -> str:
    """The span an op's front end is recorded under."""
    if isinstance(query, dict):
        return "sketch.parse"
    return "parser.parse" if query.lstrip().startswith(("[", "(", "!")) else "nlp.translate"


def run_traced(tracer: Tracer, session: ShapeSearch, op: dict) -> Tuple[list, ExecutionStats, str]:
    """One op, span by span — the steps ``prepare`` + ``run`` take inside."""
    engine = session.engine
    with tracer.span("api.prepare"):
        with tracer.span(_front_end(op["query"])):
            node = parse_query(to_query(op["query"]), tagger=session.tagger)
        with tracer.span("chains.compile"):
            compiled = engine.compile(node)
        params = _params(op)
    with tracer.span("api.run"):
        stats = ExecutionStats()
        with tracer.span("pipeline.plan"):
            plan = plan_pipeline(engine, compiled, op["k"], table=session.table, params=params)
        context = PipelineContext(engine=engine, stats=stats)
        value = None
        score_class = ""
        for operator in plan.operators:
            if operator.name == "Score":
                score_class = type(operator).__name__
            with tracer.span("pipeline." + operator.name.replace("/", "")):
                value = operator.run(context, value)
        result = ResultSet(value, stats=stats, plan=plan.explain())
    return result.to_records(), stats, score_class


def replay(tracer: Tracer, session: ShapeSearch, ops: List[dict]) -> dict:
    """Alternate untraced and traced sweeps; compare answers and times."""
    for op in ops:  # warm sweep: both sides then meet the same warm caches
        search(session, op)
    untraced = [[] for _ in ops]
    traced = [[] for _ in ops]
    mismatched = set()
    stats_seen: List[ExecutionStats] = []
    score_classes = set()
    for _ in range(REPEATS):
        for position, op in enumerate(ops):
            elapsed, expected = timed_ms(search, session, op)
            untraced[position].append(elapsed)
            tracer.op_id = "op{}".format(position)
            elapsed, (answer, stats, score_class) = timed_ms(
                run_traced, tracer, session, op
            )
            tracer.op_id = None
            traced[position].append(elapsed)
            stats_seen.append(stats)
            score_classes.add(score_class)
            if json_dumps(answer) != json_dumps(expected):
                mismatched.add(position)
    return {
        "overhead": sum(min(t) for t in traced) / sum(min(t) for t in untraced),
        "mismatched": sorted(mismatched),
        "stats": stats_seen,
        "score_classes": sorted(score_classes),
    }


def replay_metrics(tracer: Tracer, session: ShapeSearch, outcome: dict) -> Dict[str, float]:
    spans = tracer.spans
    metrics = {name + "_ms": median_ms(spans, name) for name in REPLAY_SPANS}
    own = self_times_ms(spans)
    run_total = sum(duration_ms(s) for s in spans if s["name"] == "api.run")
    score_own = sum(own[s["id"]] for s in spans if s["name"] == "pipeline.Score")
    metrics["pipeline.score_share"] = score_own / run_total
    stats = outcome["stats"]
    for field in ("candidates", "scored", "eager_discarded", "shards"):
        metrics["pipeline." + field] = statistics.median(getattr(s, field) for s in stats)
    sources = [s.index_source for s in stats if s.index_source is not None]
    metrics["shape_index.source_memory_ratio"] = (
        sources.count("memory") / len(sources) if sources else 0.0
    )
    cache = session.engine.cache
    metrics["cache.trendline_hit_rate"] = cache.trendlines.stats.hit_rate if cache else 0.0
    metrics["cache.plan_hit_rate"] = cache.plans.stats.hit_rate if cache else 0.0
    metrics["trace.overhead_ratio"] = outcome["overhead"]
    return metrics


# ---------------------------------------------------------------------------
# Battery: every layer, called directly, on this workload's table
# ---------------------------------------------------------------------------


def front_end_metrics(length: int) -> Dict[str, float]:
    """Parse / translate / sketch / compile over the generator's query pools."""
    tagger = rule_tagger()
    nodes = []
    parse_ms, translate_ms, sketch_ms = [], [], []
    for text in gen.INDEXED_SHAPES:
        elapsed, node = timed_ms(parse_regex, text)
        parse_ms.append(elapsed)
        nodes.append(node)
    for sentence in gen.NL_SENTENCES:
        elapsed, translation = timed_ms(translate, sentence, tagger=tagger)
        translate_ms.append(elapsed)
        nodes.append(translation.query)
    for query in gen.adhoc_queries(length):
        if isinstance(query, dict):
            elapsed, node = timed_ms(to_query, query)
            sketch_ms.append(elapsed)
            nodes.append(node)
    compile_ms = [timed_ms(compile_query, node)[0] for node in nodes]
    return {
        "parser.parse_ms": statistics.median(parse_ms),
        "nlp.translate_ms": statistics.median(translate_ms),
        "sketch.parse_ms": statistics.median(sketch_ms),
        "chains.compile_ms": statistics.median(compile_ms),
    }


def crf_metrics() -> Dict[str, float]:
    tagger = EntityTagger(mode="crf")
    cold_ms, _ = timed_ms(translate, gen.NL_SENTENCES[0], tagger=tagger)
    warm = [timed_ms(translate, s, tagger=tagger)[0] for s in gen.NL_SENTENCES]
    return {"nlp.crf_cold_load_s": cold_ms / 1e3,
            "nlp.crf_translate_ms": statistics.median(warm)}


def appended_rows(table: Table, count: int = 16, groups: int = 4) -> List[dict]:
    """``count`` new rows continuing the first ``groups`` series of ``table``."""
    columns = {name: table.column(name).tolist() for name in table.column_names}
    next_x = max(columns[X]) + 1.0
    rows = []
    for key in list(dict.fromkeys(columns[Z]))[:groups]:
        last = len(columns[Z]) - 1 - columns[Z][::-1].index(key)
        template = {name: values[last] for name, values in columns.items()}
        rows += [dict(template, **{X: next_x + step}) for step in range(count // groups)]
    return rows


def table_metrics(table: Table) -> Dict[str, float]:
    rows = appended_rows(table)
    columns = {name: table.column(name) for name in table.column_names}
    # A fresh Table over the same (read-only, shared) arrays has no
    # memoized digest, so this times a full content hash.
    return {
        "table.append_rows_ms": median_ms_of(5, table.append_rows, rows),
        "table.fingerprint_ms": median_ms_of(3, lambda: table_fingerprint(Table(columns))),
    }


def kernel_metrics(table: Table, work: str) -> Dict[str, float]:
    """Generation, the run solver, the index and the artifact store."""
    compiled = compile_query(parse_regex(PROBE["query"]))
    params = _params(PROBE)
    normalize_y = not query_constrains_y(compiled)
    generate_ms, trendlines = timed_ms(
        generate_trendlines, table, params, normalize_y, None
    )
    engine = ShapeSearch(table).engine

    def solve(trendline):
        return solve_one(trendline, compiled, engine.algorithm, kernel=engine.kernel)

    solve_ms = [timed_ms(solve, t)[0] for t in trendlines[:64]]
    extend_ms = []
    for trendline in trendlines[:16]:
        _result, state = solve_query_extend(trendline, compiled)
        step = trendline.x[-1] - trendline.x[-2]
        longer = build_trendline(
            trendline.key,
            np.concatenate([trendline.x, trendline.x[-1] + step * np.arange(1, 5)]),
            np.concatenate([trendline.y, trendline.y[-4:][::-1]]),
            bin_width=params.bin_width, normalize_y=normalize_y,
        )
        extend_ms.append(
            timed_ms(solve_query_extend, longer, compiled, state=state)[0]
        )
    build_ms, index = timed_ms(ShapeIndex.build, trendlines)
    prune_ms, (_survivors, pruned) = timed_ms(
        prune_candidates, trendlines, index, compiled, PROBE["k"], solve
    )
    store = os.path.join(work, "probe-store")
    key = ("bench-probe", PROBE["y"])
    fingerprint = table_fingerprint(table)
    save_ms, directory = timed_ms(save_index, store, key, index, fingerprint)
    load_ms, loaded = timed_ms(load_index, store, key, fingerprint)
    if loaded is None:
        raise RuntimeError("the artifact just saved did not load")
    disk = sum(entry.stat().st_size for entry in directory.iterdir())
    return {
        "pipeline.generate_trendlines_ms": generate_ms,
        "pipeline.trendlines_per_s": len(trendlines) / (generate_ms / 1e3),
        "dynamic.solve_query_ms": statistics.median(solve_ms),
        "dynamic.solve_query_extend_ms": statistics.median(extend_ms),
        "shape_index.build_ms": build_ms,
        "shape_index.prune_ms": prune_ms,
        "shape_index.pruned_ratio": pruned / len(trendlines),
        "artifacts.save_ms": save_ms,
        "artifacts.load_ms": load_ms,
        "artifacts.disk_bytes": float(disk),
    }


def exactness(table: Table) -> float:
    """Share of indexable shapes an indexed search answers like a full scan."""
    same = 0
    with ShapeSearch(table) as plain, ShapeSearch(table, index=True) as indexed:
        for shape in gen.INDEXED_SHAPES:
            op = dict(PROBE, query=shape)
            same += json_dumps(search(plain, op)) == json_dumps(search(indexed, op))
    return same / len(gen.INDEXED_SHAPES)


def child_pids() -> List[int]:
    """Live children of this process, from ``/proc`` (no private handles)."""
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/{}/stat".format(entry)) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me and fields[0] != "Z":
            found.append(int(entry))
    return found


def parallel_metrics(table: Table) -> Dict[str, float]:
    """A cold process-backend session: pool start, worker RSS, shm footprint."""
    before = set(os.listdir("/dev/shm"))
    bystanders = set(child_pids())
    started = now()
    with ShapeSearch(table, workers=2, backend="process") as session:
        search(session, PROBE)
        first_dispatch_s = (now() - started) / 1e9
        rss = max(peak_rss_mb(pid) for pid in set(child_pids()) - bystanders)
        segments = set(os.listdir("/dev/shm")) - before
        shm_bytes = sum(os.stat(os.path.join("/dev/shm", name)).st_size
                        for name in segments)
    return {
        "parallel.first_dispatch_s": first_dispatch_s,
        "parallel.worker_peak_rss_mb": rss,
        "shm.segment_bytes": float(shm_bytes),
    }


def tail_metrics(tracer: Tracer, table: Table, plan: dict) -> Dict[str, float]:
    """Open a tail and feed it appends; split each refresh by progress callback.

    The engine calls ``progress`` when scoring begins and as shards
    complete, so the first and last calls cut a refresh into the part
    before scoring (table append, delta scan), scoring, and the merge.
    ``tail_append`` feeds its own first appends, the others synthetic ones.
    """
    if "tail" in plan:
        query = plan["tail"]
        batches = [op["rows"] for op in plan["ops"] if op["type"] == "append"][:16]
    else:
        query = PROBE
        batches = None
    marks: List[int] = []
    with ShapeSearch(table) as session:
        started = now()
        tail = session.tail(query["query"], z=Z, x=X, y=query["y"], k=query["k"],
                            progress=lambda _done, _total: marks.append(now()))
        open_s = (now() - started) / 1e9
        rescored = []
        for step in range(len(batches) if batches else 5):
            rows = batches[step] if batches else appended_rows(tail.table)
            marks.clear()
            tracer.op_id = "tail{}".format(step)
            with tracer.span("api.tail_refresh") as refresh:
                refreshed = tail.append_rows(rows)
            tracer.op_id = None
            cuts = [refresh["start_ns"], marks[0], marks[-1], refresh["end_ns"]]
            for name, lo, hi in zip(("prescore", "score", "merge"), cuts, cuts[1:]):
                tracer.add("api.tail_" + name, lo, hi)["parent"] = refresh["id"]
            rescored.append(refreshed.stats.scored)
        state_bytes = tail.state_stats()["bytes"]
    metrics = {name + "_ms": median_ms(tracer.spans, name) for name in TAIL_SPANS}
    metrics.update({
        "api.tail_open_s": open_s,
        "api.tail_rescored_groups": statistics.median(rescored),
        "api.tail_state_bytes": float(state_bytes),
    })
    return metrics


def serving_metrics(csv_path: str) -> Dict[str, float]:
    """Publish, miss and hit round trips against an in-thread server."""
    keys = [dict(PROBE, query=shape) for shape in gen.INDEXED_SHAPES[:6]]
    app = ShapeServingApp(session_options=serve.SESSION_OPTIONS)
    with start_in_thread(app) as handle, \
            ServingClient(*handle.address, tenant="bench-http") as client:
        started = now()
        fingerprint = client.publish_columns(**read_columns(csv_path))
        publish_s = (now() - started) / 1e9

        def ask(op):
            return client.search(fingerprint, op["query"], Z, X, op["y"], k=op["k"])

        ask(dict(PROBE, k=3))  # builds the index: not a steady-state miss
        miss_ms = [timed_ms(ask, op)[0] for op in keys]
        http_ms = [timed_ms(ask, op)[0] for _ in range(5) for op in keys]
        with ServingClient(*handle.address, tenant="bench-ws").open_stream() as stream:

            def ask_ws(op):
                return stream.result(stream.submit(
                    fingerprint, op["query"], Z, X, op["y"], k=op["k"]))

            ws_ms = [timed_ms(ask_ws, op)[0] for _ in range(5) for op in keys]
        stats = client.stats()
        # The same misses, in process on the server's own (now warm) session.
        session = app.registry.get(fingerprint)
        inprocess_ms = [timed_ms(search, session, op)[0] for op in keys]
        prepared = session.prepare(PROBE["query"], z=Z, x=X, y=PROBE["y"])
        payload = result_payload(prepared.run(k=PROBE["k"]))
    body = json_dumps(payload)
    parser = FrameParser()
    mask = b"\x01\x02\x03\x04"
    admission = stats["admission"]
    return {
        "serving.app.publish_s": publish_s,
        "serving.http.hit_roundtrip_ms": statistics.median(http_ms),
        "serving.ws.hit_roundtrip_ms": statistics.median(ws_ms),
        "serving.app.miss_roundtrip_ms": statistics.median(miss_ms),
        "serving.app.miss_overhead_ms": (
            statistics.median(miss_ms) - statistics.median(inprocess_ms)
        ),
        "serving.app.server_search_p50_ms": stats["endpoints"]["/v1/search"]["p50_ms"],
        "serving.protocol.dumps_ms": median_ms_of(21, json_dumps, payload),
        "serving.protocol.response_bytes": float(len(body)),
        "serving.ws.codec_us": 1e3 * median_ms_of(
            21, lambda: parser.feed(encode_frame(body, mask=mask))
        ),
        "serving.result_cache.hit_rate": stats["result_cache"]["hit_rate"],
        "serving.tenancy.admitted": float(admission["admitted"]),
        "serving.tenancy.refused": float(
            admission["rate_limited"] + admission["overloaded"]
        ),
    }


# ---------------------------------------------------------------------------
# The traced pass
# ---------------------------------------------------------------------------


def traced_pass(spec: dict, started_ns: int, imported_ns: int) -> dict:
    with open(spec["ops"]) as handle:
        plan = json.load(handle)
    workload = spec["workload"]
    tracer = Tracer()
    tracer.add("process.import", started_ns, imported_ns)
    with tracer.span("table.from_csv"):
        table = Table.from_csv(spec["csv"])
    metrics: Dict[str, float] = {
        # Per-layer times are raw; this says how fast the host was (1.0 =
        # the reference speed the end-to-end metrics are scaled to).
        "process.host_speed": calibrate.host_speed(calibrate.sample())["mean"],
        "process.import_s": (imported_ns - started_ns) / 1e9,
        "table.from_csv_s": duration_ms(tracer.spans[-1]) / 1e3,
    }
    ops = replay_ops(workload, plan)
    with ShapeSearch(table, tagger=rule_tagger(), **session_options(workload, spec)) as session:
        outcome = replay(tracer, session, ops)
        metrics.update(replay_metrics(tracer, session, outcome))
    work = os.path.dirname(spec["out"])
    metrics.update(front_end_metrics(plan["length"]))
    metrics.update(table_metrics(table))
    metrics.update(kernel_metrics(table, work))
    metrics["shape_index.exact_ratio"] = exactness(table)
    metrics.update(parallel_metrics(table))
    metrics.update(tail_metrics(tracer, table, plan))
    metrics.update(serving_metrics(spec["csv"]))
    if spec.get("crf"):
        metrics.update(crf_metrics())
    metrics["trace.spans"] = float(len(tracer.spans))
    tracer.write(spec["spans"])
    problems = ["traced op {} answered differently from the untraced run".format(p)
                for p in outcome["mismatched"]]
    missing = sorted(set(UNITS) - set(metrics))
    if missing:
        problems.append("metrics not measured: {}".format(missing))
    return {
        "metrics": {name: float(metrics[name]) for name in metrics},
        "attempted": len(ops),
        "failed": len(outcome["mismatched"]),
        "correct": not problems,
        "problems": problems,
        "score_classes": outcome["score_classes"],
    }
