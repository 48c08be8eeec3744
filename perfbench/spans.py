"""In-memory spans around the benchmark's calls into quasivoc modules.

A span records a layer (the quasivoc module, or ``bench`` for the
benchmark's own stage blocks), a name, start and end in nanoseconds, the
enclosing span and the pipeline it belongs to. Spans stay in memory and
are written out once, when the run ends. With tracing off, ``span`` is a
no-op context manager, so the untraced and traced runs execute the same
calls in the same order.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[dict] = []
        self.root = None
        self._stack: list[int] = []

    @contextmanager
    def _record(self, layer: str, name: str):
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                "root": self.root, "layer": layer, "name": name,
                "start_ns": time.perf_counter_ns(), "end_ns": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield
        finally:
            self._stack.pop()
            span["end_ns"] = time.perf_counter_ns()

    def span(self, layer: str, name: str):
        return self._record(layer, name) if self.enabled else nullcontext()

    def call(self, fn, *args, **kwargs):
        """Call a quasivoc function inside a span named after its module."""
        with self.span(fn.__module__.rsplit(".", 1)[-1], fn.__qualname__):
            return fn(*args, **kwargs)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list[dict]) -> dict:
    """Per root, per layer: span durations minus the time their children cover."""
    child_ns = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    out: dict = defaultdict(lambda: defaultdict(float))
    for s in spans:
        own = s["end_ns"] - s["start_ns"] - child_ns[s["id"]]
        out[s["root"]][s["layer"]] += own / 1e9
    return out


def call_times(spans: list[dict]) -> dict:
    """Per root, per ``layer.name``: summed wall seconds of the calls."""
    out: dict = defaultdict(lambda: defaultdict(float))
    for s in spans:
        out[s["root"]][f"{s['layer']}.{s['name']}"] += (s["end_ns"] - s["start_ns"]) / 1e9
    return out
