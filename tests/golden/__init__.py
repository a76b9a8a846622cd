"""The answer ledger: what every plan returns, pinned across commits.

One row per (Table 11 suite at a quarter of its count and length, query,
plan), where a plan is an algorithm (``tree``, ``dp``, ``greedy``) with
the shape index on or off.  A subset runs again on two workers, one
search goes through the in-process server and one query reads a live
tail after an append.  Each row keeps the sha256 of its ranked answer
(key, score bits and placements of every match) and the top-k keys in
plain text, so a diff of ``answers.json`` shows which ranking moved.

``python -m tests.golden --write`` regenerates ``answers.json``;
``tests/test_answer_ledger.py`` recomputes every row and compares.  A
change that does not mean to change answers leaves the file untouched.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, List

import numpy as np

from repro import ShapeSearch, ShapeSearchEngine
from repro.algebra.nodes import Concat, ShapeSegment
from repro.algebra.primitives import Location
from repro.data.table import Table
from repro.datasets.suites import SUITES, suite_table, suite_trendlines
from repro.parser import parse

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "answers.json")

#: Suites at a quarter of Table 11's count and length, with the floors of
#: ``benchmarks/conftest.py`` — pinned here, where the benches read
#: ``REPRO_BENCH_SCALE``, so the ledger does not follow that variable.
SCALE = 0.25
K = 20

#: Plan name -> engine algorithm.
ALGORITHMS = {"tree": "segment-tree", "dp": "dp", "greedy": "greedy"}

#: The subset rerun on two workers: realestate is the largest suite, so
#: its scan shards across the process pool.
WORKER_SUITES = ("realestate",)
WORKER_PLANS = ("tree", "dp")


def suite_size(name: str):
    spec = SUITES[name]
    return (
        max(10, int(spec.visualizations * SCALE)),
        max(120, int(spec.length * SCALE)),
    )


def suite_queries(name: str) -> Dict[str, object]:
    """Query id -> parsed query: ``f0``… the fuzzy ones, ``nf`` the pinned one.

    The non-fuzzy query's x pins are scaled to the shortened series, as
    the paper benches do.
    """
    spec = SUITES[name]
    queries: Dict[str, object] = {
        "f{}".format(i): parse(text) for i, text in enumerate(spec.fuzzy_queries)
    }
    scale = suite_size(name)[1] / spec.length

    def rescale(segment: ShapeSegment) -> ShapeSegment:
        loc = segment.location
        return segment.with_location(
            Location(
                x_start=None if loc.x_start is None else loc.x_start * scale,
                x_end=None if loc.x_end is None else max(
                    loc.x_end * scale, (loc.x_start or 0) * scale + 2
                ),
                y_start=loc.y_start,
                y_end=loc.y_end,
            )
        )

    node = parse(spec.non_fuzzy_query)
    if isinstance(node, ShapeSegment):
        node = rescale(node)
    elif isinstance(node, Concat):
        node = Concat(tuple(rescale(child) for child in node.children))
    queries["nf"] = node
    return queries


def digest(records: Iterable[dict]) -> str:
    """sha256 of a ranking: key, score bits and placements of every match."""
    h = hashlib.sha256()
    for record in records:
        placements = tuple(
            (int(seg), int(start), int(end), float(score).hex(), float(slope).hex())
            for seg, start, end, score, slope in record["placements"]
        )
        row = (str(record["key"]), float(record["score"]).hex(), placements)
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def row(row_id: str, records: List[dict]) -> dict:
    return {
        "id": row_id,
        "sha256": digest(records),
        "top": " ".join(str(record["key"]) for record in records),
    }


def rank_rows() -> List[dict]:
    """Every suite × query × algorithm × index row, plus the worker subset."""
    rows: List[dict] = []
    engines = {
        (plan, index): ShapeSearchEngine(algorithm=algorithm, index=index)
        for plan, algorithm in ALGORITHMS.items()
        for index in (False, True)
    }
    try:
        for name in SUITES:
            count, length = suite_size(name)
            trendlines = suite_trendlines(
                name, max_visualizations=count, max_length=length
            )
            for query_id, query in suite_queries(name).items():
                for (plan, index), engine in engines.items():
                    plan_id = plan + ("+index" if index else "")
                    records = engine.rank(trendlines, query, k=K).to_records()
                    rows.append(row("/".join((name, query_id, plan_id)), records))
                    if name in WORKER_SUITES and plan in WORKER_PLANS and not index:
                        records = engine.rank(
                            trendlines, query, k=K, workers=2
                        ).to_records()
                        rows.append(
                            row("/".join((name, query_id, plan_id, "workers=2")), records)
                        )
    finally:
        for engine in engines.values():
            engine.close()
    return rows


def _weather():
    count, length = suite_size("weather")
    return suite_table("weather", max_visualizations=count, max_length=length)


def served_row() -> dict:
    """One search through the in-process server, decoded from the wire."""
    from repro.serving import ServingClient, ShapeServingApp, start_in_thread

    table = _weather()
    handle = start_in_thread(ShapeServingApp())
    client = ServingClient(*handle.address)
    try:
        fingerprint = client.publish_columns(
            **{column: table.column(column).tolist() for column in ("z", "x", "y")}
        )
        response = client.search(
            fingerprint, SUITES["weather"].fuzzy_queries[0], "z", "x", "y", k=K
        )
    finally:
        client.close()
        handle.stop()
    return row("weather/f0/served", response["result"]["matches"])


def tail_row() -> dict:
    """A live tail over the first 100 bins of every series, read after the
    rest is appended."""
    table = _weather()
    x = table.column("x")
    head = x < 100
    columns = {column: table.column(column) for column in ("z", "x", "y")}
    rest = [
        {"z": z, "x": float(xv), "y": float(yv)}
        for z, xv, yv in zip(
            columns["z"][~head].tolist(), x[~head].tolist(), columns["y"][~head].tolist()
        )
    ]
    start = Table.from_arrays(**{name: values[head] for name, values in columns.items()})
    with ShapeSearch(start) as session:
        tail = session.tail(
            SUITES["weather"].fuzzy_queries[0], z="z", x="x", y="y", k=K
        )
        records = tail.append_rows(rest).to_records()
    return row("weather/f0/tail", records)


def run() -> dict:
    """The whole ledger, as written to ``answers.json``."""
    return {
        "numpy": np.__version__,
        "rows": rank_rows() + [served_row(), tail_row()],
    }


def dumps(ledger: dict) -> str:
    return json.dumps(ledger, indent=1, sort_keys=True) + "\n"


def load() -> dict:
    with open(PATH) as handle:
        return json.load(handle)
