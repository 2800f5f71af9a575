"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name, a start and end (``perf_counter`` seconds), the id
of the span that was open on the same thread when it began (its
parent), and the request id it belongs to.  Spans are kept in a list
and written out once, as JSON lines, when the run ends.  While
``recording`` is false, :meth:`Spans.span` costs one attribute test.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Optional

_NULL = nullcontext()
FIELDS = ("id", "name", "start", "end", "parent", "request")


class Spans:
    def __init__(self) -> None:
        self.recording = False
        # Tuples of atoms, which the cyclic garbage collector stops
        # tracking, so a long trace does not slow every collection.
        self.events: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def span(self, name: str, request: Optional[str] = None):
        """A context manager recording one span.  Inside a recorded
        span, children record even if ``recording`` was switched off
        meanwhile, so no request is recorded in part."""
        if not self.recording and not getattr(self._local, "stack", None):
            return _NULL
        return self._span(name, request)

    @contextmanager
    def _span(self, name: str, request: Optional[str]):
        stack = self._local.__dict__.setdefault("stack", [])
        parent, inherited = stack[-1] if stack else (None, None)
        span_id = next(self._ids)
        stack.append((span_id, request if request is not None else inherited))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.events.append(
                (span_id, name, start, end, parent,
                 request if request is not None else inherited)
            )

    def self_times(self) -> dict[str, list[float]]:
        """Each span name's self times in ms: a span's duration minus the
        time its children cover.  Children run on their parent's thread,
        one after another, so their durations do not overlap."""
        covered: dict[int, float] = {}
        for _, _, start, end, parent, _ in self.events:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + end - start
        out: dict[str, list[float]] = {}
        for span_id, name, start, end, _, _ in self.events:
            own = end - start - covered.get(span_id, 0.0)
            out.setdefault(name, []).append(own * 1000.0)
        return out

    def summary(self) -> dict[str, dict]:
        """Each span name's count and mean and median self time."""
        return {
            name: {
                "count": len(values),
                "self_mean_ms": statistics.fmean(values),
                "self_p50_ms": statistics.median(values),
            }
            for name, values in sorted(self.self_times().items())
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as sink:
            for event in self.events:
                sink.write(json.dumps(dict(zip(FIELDS, event))) + "\n")
