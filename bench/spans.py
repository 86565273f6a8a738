"""In-memory span recorder for the traced benchmark run.

Spans are opened around calls into the library from the benchmark's own
code, so the library itself carries no instrumentation. Each span keeps
its name, start, end, parent span and operation id; counters are bumped at
the same call boundaries. Nothing is written until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index into Recorder.spans, None for an op root
    op: int


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as a child of the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._op += 1
        index = len(self.spans)
        record = Span(name, time.perf_counter(), 0.0, parent, self._op)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child durations.

        Children of one span never overlap (the benchmark is a single
        closed loop), so subtracting their durations is exact.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        totals: dict[str, float] = defaultdict(float)
        for s, inner in zip(self.spans, child_time):
            totals[s.name] += (s.end - s.start) - inner
        return dict(totals)

    def write(self, path) -> None:
        """Write one JSON line per span, then one line with the counters."""
        with open(path, "w") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op,
                }) + "\n")
            out.write(json.dumps({"counters": dict(self.counters)}) + "\n")
