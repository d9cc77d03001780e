"""Serving metrics: request counters, gauges, latency percentiles.

A single :class:`ServerMetrics` instance is shared by every connection
thread and the pool dispatcher, so everything is guarded by one lock —
contention is irrelevant next to seconds-long scheduling requests.

Latencies are recorded per stage into bounded reservoirs (the most recent
``window`` observations): ``lookup`` is resolve + cache probe, ``compute``
is worker wall time on a miss, ``total`` is request arrival to response
ready.  Percentiles are computed on demand from a sorted copy — a few
thousand floats, microseconds — rather than maintained incrementally.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Optional

__all__ = ["LatencyWindow", "ServerMetrics"]

DEFAULT_WINDOW = 4096

PERCENTILES = (0.5, 0.9, 0.99)


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
        ordered = sorted(self._samples)
        idx = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[idx]

    def as_dict(self) -> dict:
        out: dict = {"count": self.count}
        for q in PERCENTILES:
            value = self.percentile(q)
            key = f"p{int(q * 100)}"
            out[key] = None if value is None else round(value, 6)
        if self._samples:
            out["max"] = round(max(self._samples), 6)
        else:
            out["max"] = None
        return out


class ServerMetrics:
    """Counters + latency windows; ``snapshot()`` is the ``stats`` payload."""

    def __init__(self, window: int = DEFAULT_WINDOW):
        self._lock = threading.Lock()
        self.started = time.time()
        self.requests = 0            # every parsed request, any type
        self.optimize_requests = 0
        self.ok = 0
        self.hits_memory = 0
        self.hits_disk = 0
        self.coalesced = 0           # waited on another request's computation
        self.misses = 0              # actually computed by a worker
        self.busy = 0                # admission control rejections
        self.errors: dict[str, int] = {}
        # scheduler arbitration on computed (miss) responses:
        # path -> count, e.g. {"quick": 3, "fallback": 1, "exact": 2}
        self.scheduler_paths: dict[str, int] = {}
        # fallback reason -> count, e.g. {"untilable-band": 1}
        self.fallback_reasons: dict[str, int] = {}
        # structural warm-start outcomes on computed (miss) responses,
        # from the result's SchedulerStats.structural_path: a skeleton
        # record replayed every solve (hit), no record existed (miss), or
        # a record existed but some level solved cold (fallback).
        # Requests served with the store disabled count nowhere.
        self.structural_hits = 0
        self.structural_misses = 0
        self.structural_fallbacks = 0
        # computed responses whose schedule carries at least one
        # reduction-parallel row (parallel_reductions relaxation paid off);
        # cache hits reuse a previously counted computation
        self.reduction_parallel = 0
        # resolved execution backend -> optimize requests, e.g.
        # {"python": 40, "c": 2}; requests predating the knob count as
        # "python" (the resolved-options default)
        self.backends: dict[str, int] = {}
        # warm worker pool accounting
        self.pool_spawns = 0       # workers forked (initial + replacements)
        self.pool_dispatches = 0   # jobs handed to a worker
        self.pool_reuses = 0       # ... to a worker that had served before
        self.pool_recycles = 0     # workers retired at the recycle limit
        # router-side: shard endpoint -> forwarded optimize requests
        self.shard_routes: dict[str, int] = {}
        self._latency = {
            "lookup": LatencyWindow(window),
            "compute": LatencyWindow(window),
            "total": LatencyWindow(window),
        }

    # -- recording ---------------------------------------------------------

    def count_request(self, rtype: str) -> None:
        with self._lock:
            self.requests += 1
            if rtype == "optimize":
                self.optimize_requests += 1

    def count_outcome(self, cache: Optional[str]) -> None:
        """One served optimize response: ``cache`` is the response tag."""
        with self._lock:
            self.ok += 1
            if cache == "hit-memory":
                self.hits_memory += 1
            elif cache == "hit-disk":
                self.hits_disk += 1
            elif cache == "coalesced":
                self.coalesced += 1
            elif cache == "miss":
                self.misses += 1

    def count_scheduler(self, path: Optional[str], reason: Optional[str] = None) -> None:
        """One computed response's scheduler arbitration outcome.

        ``path`` is ``scheduler_path`` from the result's SchedulerStats
        (``"quick"``, ``"fallback"``, or ``"exact"``); ``reason`` is the
        fallback reason when the quick heuristic bowed out.  Cache hits are
        not recorded — they reuse a previously counted computation.
        """
        if path is None:
            return
        with self._lock:
            self.scheduler_paths[path] = self.scheduler_paths.get(path, 0) + 1
            if reason is not None:
                self.fallback_reasons[reason] = (
                    self.fallback_reasons.get(reason, 0) + 1
                )

    def count_structural(self, path: Optional[str]) -> None:
        """One computed response's skeleton-store outcome.

        ``path`` is ``structural_path`` from the result's SchedulerStats;
        ``None`` (store disabled, or a record predating the field) is not
        counted.  Like :meth:`count_scheduler`, exact-cache hits are never
        recorded — they reuse a previously counted computation.
        """
        if path is None:
            return
        with self._lock:
            if path == "hit":
                self.structural_hits += 1
            elif path == "fallback":
                self.structural_fallbacks += 1
            else:
                self.structural_misses += 1

    def count_reduction_parallel(self) -> None:
        """One computed response whose schedule has reduction-parallel rows."""
        with self._lock:
            self.reduction_parallel += 1

    def count_backend(self, backend: str) -> None:
        """One resolved optimize request's execution backend."""
        with self._lock:
            self.backends[backend] = self.backends.get(backend, 0) + 1

    def count_pool_spawn(self) -> None:
        with self._lock:
            self.pool_spawns += 1

    def count_pool_dispatch(self, reused: bool) -> None:
        """One job handed to a warm worker; ``reused`` when that worker
        had already served at least one request (the pre-fork payoff)."""
        with self._lock:
            self.pool_dispatches += 1
            if reused:
                self.pool_reuses += 1

    def count_pool_recycle(self) -> None:
        with self._lock:
            self.pool_recycles += 1

    def count_shard_route(self, shard: str) -> None:
        """One optimize request forwarded to ``shard`` (router only)."""
        with self._lock:
            self.shard_routes[shard] = self.shard_routes.get(shard, 0) + 1

    def count_busy(self) -> None:
        with self._lock:
            self.busy += 1

    def count_error(self, kind: str) -> None:
        with self._lock:
            self.errors[kind] = self.errors.get(kind, 0) + 1

    def observe(self, stage: str, seconds: float) -> None:
        with self._lock:
            self._latency[stage].record(seconds)

    # -- reporting ---------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        served = self.hits_memory + self.hits_disk + self.coalesced + self.misses
        if not served:
            return 0.0
        return (self.hits_memory + self.hits_disk + self.coalesced) / served

    def snapshot(self, **gauges) -> dict:
        """Everything, as one JSON-shaped dict.

        ``gauges`` lets the daemon splice in point-in-time values it owns
        (``queue_depth``, ``in_flight``, ``connections``).
        """
        with self._lock:
            return {
                "uptime_seconds": round(time.time() - self.started, 3),
                "requests": self.requests,
                "optimize_requests": self.optimize_requests,
                "ok": self.ok,
                "hits_memory": self.hits_memory,
                "hits_disk": self.hits_disk,
                "coalesced": self.coalesced,
                "misses": self.misses,
                "busy": self.busy,
                "errors": dict(self.errors),
                "scheduler_paths": dict(self.scheduler_paths),
                "fallback_reasons": dict(self.fallback_reasons),
                "structural_hits": self.structural_hits,
                "structural_misses": self.structural_misses,
                "structural_fallbacks": self.structural_fallbacks,
                "reduction_parallel": self.reduction_parallel,
                "backends": dict(self.backends),
                "pool": {
                    "spawns": self.pool_spawns,
                    "dispatches": self.pool_dispatches,
                    "reuses": self.pool_reuses,
                    "recycles": self.pool_recycles,
                },
                "shard_routes": dict(self.shard_routes),
                "hit_rate": round(self.hit_rate, 4),
                "latency": {
                    name: window.as_dict()
                    for name, window in self._latency.items()
                },
                **gauges,
            }

    def summary_line(self) -> str:
        """The one-liner ``repro serve --report`` prints on exit."""
        snap = self.snapshot()
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
