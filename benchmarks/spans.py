"""In-memory spans around the benchmark's own calls into each library layer.

A span records its name, start and end (perf_counter nanoseconds), the
index of the span that caused it, the run id it shares with every span of
the same request, and how many calls it covers (a replay batch covers
many).  Nothing is written until the run ends.  A disabled tracer hands out
one shared no-op context, so the untraced timed phase pays only a method
call per span.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext

_NO_SPAN = nullcontext()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str, count: int, new_run: bool) -> None:
        self.tracer = tracer
        stack = tracer.stack
        parent = stack[-1] if stack else None
        if new_run or parent is None:
            tracer.runs += 1
            run = tracer.runs
        else:
            run = tracer.spans[parent][4]
        self.record = [name, 0, 0, parent, run, count]

    def __enter__(self) -> None:
        tracer = self.tracer
        tracer.stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = time.perf_counter_ns()

    def __exit__(self, *exc) -> None:
        self.record[2] = time.perf_counter_ns()
        self.tracer.stack.pop()


class Tracer:
    """Collects spans when enabled; every method is a cheap no-op otherwise."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.runs = 0

    def span(self, name: str, count: int = 1, new_run: bool = False):
        """Context manager timing one call (or a batch of ``count`` calls)."""
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, name, count, new_run)

    def write(self, path, meta: dict) -> None:
        fields = ("name", "start_ns", "end_ns", "parent", "run", "count")
        spans = [dict(zip(fields, record)) for record in self.spans]
        path.write_text(json.dumps({"meta": meta, "spans": spans}) + "\n")
