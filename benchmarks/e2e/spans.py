"""In-memory span recorder for the traced pass.

One span per call into a layer's public function: ``{name, t0, t1, parent,
request_id, attrs}``.  ``parent`` is the index of the enclosing span in the
same list (``None`` at the top), ``request_id`` groups the spans of one
request, and times are ``time.perf_counter()`` seconds.  Spans stay in
memory and are written as one JSON file when the workload ends.

A layer's *self time* is its span's duration minus the part its direct
children cover (children of one span never overlap: the harness is single
threaded).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional

__all__ = ["Tracer"]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.request_id: Optional[str] = None

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        rec = {
            "name": name,
            "t0": time.perf_counter(),
            "t1": None,
            "parent": self._stack[-1] if self._stack else None,
            "request_id": self.request_id,
            "attrs": attrs,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["t1"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, t0: float, t1: float, **attrs) -> None:
        """Record a span whose interval was timed by the caller."""
        self.spans.append({
            "name": name, "t0": t0, "t1": t1,
            "parent": self._stack[-1] if self._stack else None,
            "request_id": self.request_id, "attrs": attrs,
        })

    # -- aggregation ---------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: ``count``, ``total`` seconds and ``self`` seconds."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["t1"] - s["t0"]
        out: dict[str, dict] = {}
        for s, covered in zip(self.spans, child_time):
            row = out.setdefault(s["name"], {"count": 0, "total": 0.0, "self": 0.0})
            dur = s["t1"] - s["t0"]
            row["count"] += 1
            row["total"] += dur
            row["self"] += dur - covered
        return out

    def write(self, path: Path, **header) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": self.spans}))
