"""The scheduling daemon: single-flight over the warm pool, graceful drain.

The socket side — bind, connection loop, ``bad-request`` answers, drain
order — is :class:`~repro.server.listener.LineServer`; this module adds
what an ``optimize`` request means.  One asyncio event loop multiplexes
every client connection — hundreds of
concurrent sockets cost one thread, and the warm path (memoized request
resolution, memory cache hit, pre-serialized response splice) never leaves
the loop.  Seconds-long scheduling work never runs on the loop — it runs
in the pre-forked warm workers of :class:`~repro.workers.WarmWorkerPool`
(:func:`run_optimize_job`, forked after :func:`preload_pipeline`) — so the
GIL is irrelevant to miss latency.

Request path for ``optimize``:

1. resolve the request to ``(serialized program, resolved options)`` —
   a registered workload name picks up its paper flags (``iss``/
   ``diamond``) underneath the caller's overrides, exactly like
   ``repro opt``; workload-name resolutions are memoized (registry and
   factories are fixed per process) so warm requests skip program
   rebuild + hashing entirely;
2. probe the two-tier cache; a hit answers immediately (``hit-memory`` /
   ``hit-disk``);
3. on a miss, *single-flight* the key: the first requester submits one
   pool job, concurrent identical requests wait on the same in-flight
   entry and are answered from it (``coalesced``);
4. if the pool is saturated (bounded queue full), the request is rejected
   with an explicit ``busy`` response — clients retry, the daemon never
   builds unbounded latency;
5. the pool completion callback (dispatcher thread) stores the result in
   both cache tiers and wakes every waiter via ``call_soon_threadsafe``.
   Worker crashes and timeouts become structured ``error`` responses for
   exactly the requests that needed that key; the daemon itself never
   dies with a worker, and a failing disk write costs the entry its disk
   tier, never the response.

``SIGTERM``/``SIGINT`` trigger a graceful drain: stop accepting, finish
in-flight work, answer late requests with ``shutting-down``, close
connections, leave the on-disk cache ready for the next start.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.server import protocol
from repro.server.cache import DEFAULT_MEMORY_ENTRIES, ScheduleCache
from repro.server.listener import (
    STREAM_LIMIT,
    LineServer,
    SocketInUse,
    claim_unix_path,
)
from repro.server.metrics import (
    OUTCOME_COUNTERS, STRUCTURAL_COUNTERS, ServerMetrics,
)
from repro.server.resolve import ResolveMemo
from repro.workers import (
    DEFAULT_RECYCLE,
    DEFAULT_TIMEOUT,
    PoolJob,
    WarmWorkerPool,
    WorkerEvent,
)

# STREAM_LIMIT, SocketInUse and claim_unix_path live in the listener beside
# the bind code; they are re-exported because callers import them from here.
__all__ = [
    "Daemon",
    "DaemonConfig",
    "STREAM_LIMIT",
    "SocketInUse",
    "claim_unix_path",
]

#: optimize() waiters give the pool this much slack past the worker
#: deadline before declaring the daemon itself wedged
_WAIT_GRACE = 30.0


def preload_pipeline() -> None:
    """Import the heavy modules once in the parent, pre-fork.

    Forked warm workers inherit the loaded pipeline, workload registry,
    and serializers, so their first request pays no import cost.
    """
    import repro.frontend.serialize  # noqa: F401
    import repro.pipeline  # noqa: F401
    import repro.workloads  # noqa: F401


def run_optimize_job(payload: dict) -> str:
    """Worker job body: serialized IR + options in, result JSON text out."""
    from repro.frontend.serialize import program_from_dict
    from repro.pipeline import PipelineOptions, optimize

    program = program_from_dict(payload["program"])
    options = PipelineOptions.from_dict(payload["options"])
    return optimize(program, options).to_json()


@dataclass
class DaemonConfig:
    socket_path: Optional[str] = None   # Unix socket (preferred)
    host: str = "127.0.0.1"             # TCP fallback
    port: Optional[int] = None
    jobs: int = 2
    timeout: float = DEFAULT_TIMEOUT    # per-request worker deadline
    backlog: Optional[int] = None       # queued misses beyond `jobs` (default 2x)
    cache_dir: Optional[str] = ".repro-cache"
    memory_entries: int = DEFAULT_MEMORY_ENTRIES
    #: structural skeleton store (repro.core.skeleton) consulted by the
    #: pipeline inside pool workers on exact-cache misses; exported to the
    #: workers via REPRO_SKELETON_CACHE before the pool starts.  None
    #: disables the layer.
    skeleton_dir: Optional[str] = None
    drain_seconds: float = 60.0         # SIGTERM: wait this long for workers
    pool_recycle: int = DEFAULT_RECYCLE  # requests per worker before recycling

    def __post_init__(self) -> None:
        if (self.socket_path is None) == (self.port is None):
            raise ValueError("configure exactly one of socket_path or port")


class _Flight:
    """One in-flight computation; waiters park a future on their loop that
    ``settle()`` (called from the pool's dispatcher thread) completes
    thread-safely."""

    def __init__(self) -> None:
        self.response: Optional[dict] = None
        self.result_text: Optional[str] = None
        self._settled = False
        self._waiters: list[tuple[asyncio.AbstractEventLoop, asyncio.Future]] = []
        self._lock = threading.Lock()

    def settle(self) -> None:
        with self._lock:
            self._settled = True
            waiters, self._waiters = self._waiters, []
        for loop, future in waiters:
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(self._finish_future, future)

    @staticmethod
    def _finish_future(future: asyncio.Future) -> None:
        if not future.done():
            future.set_result(True)

    async def wait_async(self, timeout: float) -> bool:
        loop = asyncio.get_running_loop()
        with self._lock:
            if self._settled:
                return True
            future: asyncio.Future = loop.create_future()
            self._waiters.append((loop, future))
        try:
            await asyncio.wait_for(future, timeout)
            return True
        except asyncio.TimeoutError:
            return False


class Daemon(LineServer):
    def __init__(self, config: DaemonConfig):
        super().__init__(config, ServerMetrics())
        self.cache = ScheduleCache(
            config.cache_dir or None, memory_entries=config.memory_entries
        )
        self.pool = WarmWorkerPool(
            config.jobs, timeout=config.timeout, backlog=config.backlog,
            recycle=config.pool_recycle, target=run_optimize_job,
            metrics=self.metrics, preload=preload_pipeline,
        )
        self._memo = ResolveMemo()
        self._flights: dict[str, _Flight] = {}
        self._flights_lock = threading.Lock()

    # -- lifecycle hooks ---------------------------------------------------

    def start(self) -> None:
        """Fork the warm workers — after the path is claimed (a refused
        start forks nothing) and before anything is bound (no worker
        inherits the listening socket).  ``skeleton_dir`` is published
        first: workers inherit the environment they fork with."""
        if self.config.skeleton_dir:
            os.environ["REPRO_SKELETON_CACHE"] = self.config.skeleton_dir
        self.pool.start()

    async def drain(self) -> None:
        # pool.drain blocks for up to drain_seconds: keep it off the loop
        await asyncio.get_running_loop().run_in_executor(None, self._drain_pool)

    def _drain_pool(self) -> None:
        drained = self.pool.drain(timeout=self.config.drain_seconds)
        if not drained:
            self.pool.stop()  # stragglers: kill, fail their flights

    # -- one request -------------------------------------------------------

    async def handle(self, request: dict) -> bytes:
        t_arrival = time.perf_counter()
        rtype = request["type"]
        if rtype != "optimize":
            return protocol.encode_message(self._handle_control(request, rtype))

        program_dict, options_dict, key = self._memo.resolve(request)

        text, tier = self.cache.get(key)
        self.metrics.observe("lookup", time.perf_counter() - t_arrival)
        if text is not None:
            return self._ok_bytes(request, key, f"hit-{tier}", text, t_arrival)

        if self._stop.is_set():
            self.metrics.count("errors", key="shutting-down")
            return protocol.encode_message(protocol.error_response(
                request, "shutting-down", "daemon is draining; not accepting work"
            ))

        flight, owner = self._join_flight(key, program_dict, options_dict)
        if flight is None:
            self.metrics.count("busy")
            return protocol.encode_message(self._busy_response(request))

        if not await flight.wait_async(self.config.timeout + _WAIT_GRACE):
            self.metrics.count("errors", key="wedged")
            return protocol.encode_message(protocol.error_response(
                request, "error", "internal: flight never settled"
            ))
        if flight.result_text is None:
            return protocol.encode_message(
                {**protocol.response_header(request), **flight.response}
            )
        if owner:
            self._count_owner_scheduler(flight.result_text)
        cache_tag = "miss" if owner else "coalesced"
        return self._ok_bytes(request, key, cache_tag, flight.result_text,
                              t_arrival)

    def _ok_bytes(
        self, request: dict, key: str, cache_tag: str, result_text: str,
        t_arrival: float,
    ) -> bytes:
        elapsed = time.perf_counter() - t_arrival
        self.metrics.count(OUTCOME_COUNTERS[cache_tag])
        self.metrics.observe("total", elapsed)
        head = {
            **protocol.response_header(request),
            "status": "ok",
            "cache": cache_tag,
            "key": key,
            "elapsed": round(elapsed, 6),
        }
        return protocol.encode_response_with_result(head, result_text)

    # -- control requests and replies ------------------------------------

    def _handle_control(self, request: dict, rtype: str) -> dict:
        if rtype == "ping":
            return {**protocol.response_header(request), "status": "ok"}
        if rtype == "stats":
            return {
                **protocol.response_header(request),
                "status": "ok",
                "stats": self.stats(),
            }
        # shutdown
        self.shutdown()
        return {
            **protocol.response_header(request),
            "status": "ok",
            "draining": True,
        }

    def _busy_response(self, request: dict) -> dict:
        in_flight, queued = self.pool.load()
        return {
            **protocol.response_header(request),
            "status": "busy",
            "message": (
                f"queue full ({in_flight} in flight, {queued} queued); "
                f"retry later"
            ),
            "in_flight": in_flight,
            "queued": queued,
        }

    def _count_owner_scheduler(self, result_text: str) -> None:
        # One computation, counted once: which scheduler path won, why the
        # quick heuristic bowed out (if it did), and how the structural
        # skeleton store fared (hit / miss / fallback; None when disabled).
        data = json.loads(result_text)
        sched = data.get("scheduler_stats") or {}
        self.metrics.count("scheduler_paths", key=sched.get("scheduler_path"))
        self.metrics.count("fallback_reasons", key=sched.get("fallback_reason"))
        self.metrics.count(STRUCTURAL_COUNTERS.get(sched.get("structural_path")))
        # "reduction" appears on tiled rows only when relaxation actually
        # bought a parallel dimension (the serialization rule), so its
        # presence is exactly the "reduction-parallel schedule" signal.
        tiled = data.get("tiled") or {}
        if any(r.get("reduction") for r in tiled.get("rows", ())):
            self.metrics.count("reduction_parallel")

    # -- single-flight -----------------------------------------------------

    def _join_flight(
        self, key: str, program_dict: dict, options_dict: dict
    ) -> tuple[Optional[_Flight], bool]:
        """Single-flight entry: returns ``(flight, is_owner)``.

        ``(None, False)`` means admission control rejected the request.
        """
        with self._flights_lock:
            flight = self._flights.get(key)
            if flight is not None:
                return flight, False
            flight = _Flight()
            job = PoolJob(
                key=key,
                payload={"program": program_dict, "options": options_dict},
                on_done=lambda ev, k=key: self._complete(k, ev),
            )
            if not self.pool.try_submit(job):
                return None, False
            self._flights[key] = flight
            return flight, True

    def _complete(self, key: str, ev: WorkerEvent) -> None:
        """Pool callback (dispatcher thread): settle the flight.

        The flight is already out of ``_flights``, so nothing else can
        ever settle it: whatever happens in here, ``settle()`` must run,
        or its waiters block out the full worker deadline.
        """
        with self._flights_lock:
            flight = self._flights.pop(key, None)
        if flight is None:  # pool stop raced a completed flight
            return
        try:
            if ev.kind == "ok":
                flight.result_text = ev.payload
                self.metrics.observe("compute", ev.elapsed)
                # before settle(): a client holding its response can rely
                # on the next identical request being a cache hit
                self.cache.put(key, ev.payload)
            else:
                message = (ev.payload if isinstance(ev.payload, str)
                           else str(ev.payload))
                flight.response = {
                    "status": "error",
                    "kind": ev.kind,
                    "message": message,
                    "key": key,
                }
                self.metrics.count("errors", key=ev.kind)
        finally:
            flight.settle()

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        in_flight, queued = self.pool.load()
        with self._conns_lock:
            connections = len(self._open_conns)
        return {
            "server": self.metrics.as_dict(
                in_flight=in_flight,
                queue_depth=queued,
                connections=connections,
                jobs=self.pool.jobs,
                backlog=self.pool.backlog,
                skeleton_dir=self.config.skeleton_dir,
            ),
            "cache": self.cache.snapshot(),
        }
