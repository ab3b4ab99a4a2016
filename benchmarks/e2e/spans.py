"""The harness's in-memory span recorder.

Spans are recorded from the benchmark's own files, around the public calls
into each layer; spans *inside* the agents are ROADMAP item 2.  Nothing is
written until the run ends (:meth:`SpanRecorder.write_chrome_trace`).
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from pathlib import Path

#: ``span(None, ...)`` — the untraced passes share the traced code path.
_UNTRACED = contextlib.nullcontext()


class SpanRecorder:
    """Records ``name, start, end, parent, workload, query index`` per span.

    Nesting is per thread: a span's parent is the innermost span open on the
    same thread, so the two clients of ``sumcount_c2`` build separate trees.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._open = threading.local()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str, query: int | None = None):
        stack = getattr(self._open, "stack", None)
        if stack is None:
            stack = self._open.stack = []
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": stack[-1] if stack else None,
            "workload": self.workload,
            "query": query,
            "thread": threading.get_ident(),
        }
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = time.perf_counter()

    def write_chrome_trace(self, path: Path) -> None:
        """Write the spans in Chrome trace-event format (``chrome://tracing``,
        Perfetto): one complete (``X``) event per span, microseconds."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        events = [
            {
                "name": s["name"],
                "ph": "X",
                "ts": (s["start"] - origin) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "pid": 0,
                "tid": s["thread"],
                "args": {
                    "id": i,
                    "parent": s["parent"],
                    "workload": s["workload"],
                    "query": s["query"],
                },
            }
            for i, s in enumerate(self.spans)
            if s["end"] is not None
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def span(recorder: SpanRecorder | None, name: str, query: int | None = None):
    """A span on ``recorder``, or a no-op context when tracing is off."""
    if recorder is None:
        return _UNTRACED
    return recorder.span(name, query)
