"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, item): wall-clock bounds from
``time.perf_counter``, the index of the enclosing span (or None) and the id of
the input item being processed.  Spans stay in memory until ``dump``.
``totals`` and ``dump`` convert durations with a ``seconds(start, end)``
function, such as ``SpeedMeter.seconds``, which returns (wall, reference) seconds.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[list] = []      # [name, start, end, parent, item]
        self.item: str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._open[-1] if self._open else None, self.item]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def mark(self) -> int:
        """Position to pass to ``totals`` to sum only the spans recorded after now."""
        return len(self.spans)

    def totals(self, seconds, since: int = 0) -> dict:
        """Inclusive reference seconds per span name over the spans recorded since ``since``."""
        out: dict = defaultdict(float)
        for name, start, end, _, _ in self.spans[since:]:
            out[name] += seconds(start, end)[1]
        return dict(out)

    def dump(self, path, seconds) -> None:
        rows = [{"name": n, "start": s - self.origin, "end": e - self.origin,
                 "ref_s": seconds(s, e)[1], "parent": p, "item": i}
                for n, s, e, p, i in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)
            fh.write("\n")
