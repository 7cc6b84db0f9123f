"""In-memory spans around the benchmark's calls into asmtree.

A span records its name, start, end, the span that contains it and the
workload-run id. Spans are opened only in the benchmark's own code, around
calls into the public functions of each library module; the library itself
is not instrumented. A span name is "<layer>.<operation>", where the layer
is the asmtree module; the two root spans "setup" and "job" belong to the
benchmark itself.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    """Collects spans of one workload run in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)


class NullTracer:
    """Tracing off: the same interface, recording nothing."""

    def span(self, name: str):
        return nullcontext()

    def call(self, name: str, fn, *args):
        return fn(*args)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0] if "." in name else "bench"


def self_times(spans: list[dict], root: str) -> dict[str, float]:
    """Self time per layer inside the root span named `root`.

    A span's self time is its duration minus the time its child spans
    cover. Children of one span never overlap (one thread, calls in
    sequence), so the covered time is the sum of their durations.
    """
    by_id = {s["id"]: s for s in spans}
    (top,) = [s for s in spans if s["name"] == root and s["parent"] is None]
    inside = {top["id"]}
    for s in spans:  # parents precede their children in recording order
        if s["parent"] in inside:
            inside.add(s["id"])
    child_time = dict.fromkeys(inside, 0.0)
    for i in inside:
        s = by_id[i]
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for i in inside:
        s = by_id[i]
        layer = layer_of(s["name"])
        out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - child_time[i]
    return out


def total_by_name(spans: list[dict]) -> dict[str, float]:
    """Summed duration per span name."""
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
    return out
