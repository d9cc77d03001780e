"""Serving metrics: request counters, gauges, latency percentiles.

:class:`ServerMetrics` is a :class:`~repro.records.Record`: its counters
are dataclass fields, so ``as_dict()`` writes the ``stats`` payload in
field order, the four pool counters as a nested :class:`PoolCounts`.
Every counter moves through one method, :meth:`ServerMetrics.count`;
``ok`` and ``hit_rate`` are derived from the outcome counters, never
stored.  One instance is shared by the event loop and the pool's
dispatcher thread, so ``count``, ``observe`` and ``as_dict`` each take
one lock — contention is irrelevant next to seconds-long scheduling
requests.

Latencies are recorded per stage into bounded reservoirs (the most recent
``DEFAULT_WINDOW`` observations): ``lookup`` is resolve + cache probe, ``compute``
is worker wall time on a miss, ``total`` is request arrival to response
ready.  Percentiles are computed on demand from one sorted copy — a few
thousand floats, microseconds — rather than maintained incrementally.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.records import Record

__all__ = [
    "LatencyWindow", "OUTCOME_COUNTERS", "PoolCounts", "STRUCTURAL_COUNTERS",
    "ServerMetrics",
]

DEFAULT_WINDOW = 4096

PERCENTILES = (0.5, 0.9, 0.99)

#: response ``cache`` tag -> the outcome counter it bumps
OUTCOME_COUNTERS = {
    "hit-memory": "hits_memory",
    "hit-disk": "hits_disk",
    "coalesced": "coalesced",   # waited on another request's computation
    "miss": "misses",           # actually computed by a worker
}

#: ``SchedulerStats.structural_path`` -> the counter it bumps; a skeleton
#: record replayed every solve (hit), none existed (miss), or one existed
#: but some level solved cold (fallback)
STRUCTURAL_COUNTERS = {
    "hit": "structural_hits",
    "miss": "structural_misses",
    "fallback": "structural_fallbacks",
}


def _nearest_rank(ordered: list, q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class LatencyWindow:
    """The most recent ``window`` observations of one latency stage."""

    def __init__(self, window: int = DEFAULT_WINDOW):
        self._samples: deque[float] = deque(maxlen=window)
        self.count = 0  # lifetime, not just the window

    def record(self, seconds: float) -> None:
        self._samples.append(seconds)
        self.count += 1

    def percentile(self, q: float) -> Optional[float]:
        if not self._samples:
            return None
        return _nearest_rank(sorted(self._samples), q)

    def as_dict(self) -> dict:
        ordered = sorted(self._samples)
        out: dict = {"count": self.count}
        for q in PERCENTILES:
            out[f"p{int(q * 100)}"] = (
                round(_nearest_rank(ordered, q), 6) if ordered else None
            )
        out["max"] = round(ordered[-1], 6) if ordered else None
        return out


@dataclass
class PoolCounts(Record):
    """Warm worker pool accounting."""

    spawns: int = 0       # workers forked (initial + replacements)
    dispatches: int = 0   # jobs handed to a worker
    reuses: int = 0       # ... to a worker that had served before
    recycles: int = 0     # workers retired at the recycle limit


@dataclass
class ServerMetrics(Record):
    """Counters + latency windows; ``as_dict()`` is the ``stats`` payload."""

    requests: int = 0            # every parsed request, any type
    optimize_requests: int = 0
    hits_memory: int = 0
    hits_disk: int = 0
    coalesced: int = 0
    misses: int = 0
    busy: int = 0                # admission control rejections
    errors: dict[str, int] = field(default_factory=dict)
    # scheduler arbitration on computed (miss) responses:
    # path -> count, e.g. {"quick": 3, "fallback": 1, "exact": 2}
    scheduler_paths: dict[str, int] = field(default_factory=dict)
    # fallback reason -> count, e.g. {"untilable-band": 1}
    fallback_reasons: dict[str, int] = field(default_factory=dict)
    # skeleton-store outcomes on computed responses (STRUCTURAL_COUNTERS);
    # requests served with the store disabled count nowhere
    structural_hits: int = 0
    structural_misses: int = 0
    structural_fallbacks: int = 0
    # computed responses whose schedule carries at least one
    # reduction-parallel row (parallel_reductions relaxation paid off);
    # cache hits reuse a previously counted computation
    reduction_parallel: int = 0
    pool: PoolCounts = field(default_factory=PoolCounts)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self.started = time.time()
        self._latency = {
            stage: LatencyWindow() for stage in ("lookup", "compute", "total")
        }

    # -- recording ---------------------------------------------------------

    def count(self, *names: str, key: Optional[str] = None) -> None:
        """Add one to each counter in ``names``, under one lock.

        A name is a field (``"busy"``) or a pool counter (``"pool.reuses"``);
        for a dict counter (``errors``, ``scheduler_paths``, ...)
        ``key`` picks the entry.  A ``None`` name, or a ``None`` key of a
        dict counter, counts nothing: a result payload that predates a
        field (or a store that is off) leaves no trace.
        """
        with self._lock:
            for name in filter(None, names):
                owner, _, attr = name.rpartition(".")
                record = getattr(self, owner) if owner else self
                value = getattr(record, attr)
                if not isinstance(value, dict):
                    setattr(record, attr, value + 1)
                elif key is not None:
                    value[key] = value.get(key, 0) + 1

    def observe(self, stage: str, seconds: float) -> None:
        with self._lock:
            self._latency[stage].record(seconds)

    # -- reporting ---------------------------------------------------------

    @property
    def ok(self) -> int:
        """Served optimize responses, any cache outcome."""
        return self.hits_memory + self.hits_disk + self.coalesced + self.misses

    @property
    def hit_rate(self) -> float:
        served = self.ok
        return 0.0 if not served else (served - self.misses) / served

    def as_dict(self, **gauges) -> dict:
        """Everything, as one JSON-shaped dict (a copy: safe to encode
        outside the lock).

        ``gauges`` lets the daemon splice in point-in-time values it owns
        (``queue_depth``, ``in_flight``, ``connections``).
        """
        with self._lock:
            counters = super().as_dict()
            return {
                "uptime_seconds": round(time.time() - self.started, 3),
                "requests": counters.pop("requests"),
                "optimize_requests": counters.pop("optimize_requests"),
                "ok": self.ok,
                **counters,
                "hit_rate": round(self.hit_rate, 4),
                "latency": {
                    name: window.as_dict()
                    for name, window in self._latency.items()
                },
                **gauges,
            }

    def summary_line(self) -> str:
        """The one-liner ``repro serve --report`` prints on exit."""
        snap = self.as_dict()
        p50 = snap["latency"]["total"]["p50"]
        return (
            f"served {snap['optimize_requests']} optimize request(s): "
            f"{snap['hits_memory']}+{snap['hits_disk']} cache hits "
            f"(mem+disk), {snap['coalesced']} coalesced, "
            f"{snap['misses']} computed, {snap['busy']} busy, "
            f"scheduler {json.dumps(snap['scheduler_paths'])}, "
            f"fallbacks {json.dumps(snap['fallback_reasons'])}, "
            f"structural {snap['structural_hits']}/{snap['structural_misses']}"
            f"/{snap['structural_fallbacks']} (hit/miss/fb), "
            f"{snap['reduction_parallel']} reduction-parallel, "
            f"errors {json.dumps(snap['errors'])}, "
            f"hit rate {snap['hit_rate']:.2f}, "
            f"p50 total {('%.3fs' % p50) if p50 is not None else 'n/a'}"
        )
