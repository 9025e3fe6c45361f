"""In-memory span recorder for the traced run.

A span is (name, start, end, parent index, op id). Spans are only
recorded by wrappers that the benchmark installs around calls into
limpack; the program itself is not modified. Self time of a span is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self._stack: list[int] = []
        self.op = None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, perf_counter(), None, parent, self.op])
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = perf_counter()

        return traced

    def self_times(self, first: int = 0) -> dict[tuple, float]:
        """Summed self time per (op id, span name) over spans[first:]."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans[first:]:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[tuple, float] = defaultdict(float)
        for index in range(first, len(self.spans)):
            name, start, end, _, op = self.spans[index]
            totals[op, name] += (end - start) - child_time[index]
        return dict(totals)

    def records(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "op": op}
            for name, start, end, parent, op in self.spans
        ]
