"""Spans recorded from outside the program, around calls into its layers.

A span is ``{id, name, start_ns, end_ns, parent, op_id}``: ``parent`` is
the id of the span that was open when this one started (``None`` at the
top), ``op_id`` ties the spans of one replayed op together.  Spans stay
in memory until :meth:`Tracer.write` dumps them as JSON lines.  A
layer's *self time* is its duration minus the part its children cover.

Single-threaded by design: the traced replay drives one op at a time.
Spans *inside* ``src/`` are ROADMAP item 2, a later change.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from typing import Dict, Iterator, List, Optional

now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.op_id: Optional[str] = None
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict]:
        record = self.add(name, 0, 0)
        self._open.append(record["id"])
        record["start_ns"] = now()
        try:
            yield record
        finally:
            record["end_ns"] = now()
            self._open.pop()

    def add(self, name: str, start_ns: int, end_ns: int) -> dict:
        """Record a span timed by the caller (child of the open span)."""
        record = {
            "id": len(self.spans),
            "name": name,
            "start_ns": start_ns,
            "end_ns": end_ns,
            "parent": self._open[-1] if self._open else None,
            "op_id": self.op_id,
        }
        self.spans.append(record)
        return record

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_spans(path: str) -> List[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def duration_ms(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e6


def self_times_ms(spans: List[dict]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {span["id"]: duration_ms(span) for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= duration_ms(span)
    return own


def median_ms(spans: List[dict], name: str) -> float:
    """Median duration of the spans called ``name`` (0.0 when none ran)."""
    values = [duration_ms(span) for span in spans if span["name"] == name]
    return statistics.median(values) if values else 0.0
