"""In-memory spans recorded around the benchmark's calls into molfuse.

A span has a name, a start and end (``perf_counter_ns``), the span it ran
inside, and the id of the request or training step it belongs to.  Spans are
kept in a list and written out once, when the run ends.  A disabled tracer
hands out one shared no-op context manager, so the untraced pass pays a
method call per boundary and nothing else.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.request = 0
        # [name, span id, parent id (-1 for a root), request id, start ns, end ns]
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    @contextmanager
    def _span(self, name: str):
        sid = len(self.spans)
        record = [name, sid, self._open[-1] if self._open else -1, self.request, time.perf_counter_ns(), 0]
        self.spans.append(record)
        self._open.append(sid)
        try:
            yield
        finally:
            record[5] = time.perf_counter_ns()
            self._open.pop()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (span count, total self time in seconds).

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the benchmark is one thread.
        """
        child_ns = [0] * len(self.spans)
        for _, _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0, 0])
        for (name, sid, _, _, start, end) in self.spans:
            totals[name][0] += 1
            totals[name][1] += end - start - child_ns[sid]
        return {name: (count, ns / 1e9) for name, (count, ns) in totals.items()}

    def write(self, path) -> None:
        keys = ("name", "id", "parent", "request", "start_ns", "end_ns")
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


OFF = Tracer(enabled=False)
