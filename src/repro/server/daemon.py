"""The scheduling daemon: socket server, single-flight, graceful drain.

One asyncio event loop multiplexes every client connection — hundreds of
concurrent sockets cost one thread, and the warm path (memoized request
resolution, memory cache hit, pre-serialized response splice) never leaves
the loop.  Seconds-long scheduling work never runs on the loop — it runs
in the pre-forked warm workers of :class:`~repro.server.pool.WarmWorkerPool`
— so the GIL is irrelevant to miss latency.

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

Binding a Unix socket never clobbers a live daemon: the path is
probe-connected first, and only a genuinely stale socket (connection
refused) is unlinked — a live one raises :class:`SocketInUse`.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import socket
import stat
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.server import protocol
from repro.server.cache import DEFAULT_MEMORY_ENTRIES, ScheduleCache
from repro.server.metrics import ServerMetrics
from repro.server.pool import (
    DEFAULT_RECYCLE,
    DEFAULT_TIMEOUT,
    PoolJob,
    WarmWorkerPool,
)
from repro.server.resolve import ResolveMemo
from repro.workers import WorkerEvent

__all__ = ["Daemon", "DaemonConfig", "SocketInUse", "claim_unix_path"]

#: optimize() waiters give the pool this much slack past the worker
#: deadline before declaring the daemon itself wedged
_WAIT_GRACE = 30.0

#: asyncio stream limit: request/response lines carry whole serialized
#: programs and results, far past the 64 KiB default
STREAM_LIMIT = 64 * 1024 * 1024


class SocketInUse(RuntimeError):
    """The Unix socket path belongs to a live daemon (or isn't ours)."""


def claim_unix_path(path: str) -> None:
    """Make ``path`` safe to bind, without orphaning a live daemon.

    A leftover socket from a dead daemon (probe-connect refused) is
    unlinked; a socket something is still accepting on — or a path that
    is not a socket at all — raises :class:`SocketInUse` instead of the
    old silent ``os.unlink``.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        return
    except OSError as e:
        raise SocketInUse(f"cannot stat socket path {path!r}: {e}") from None
    if not stat.S_ISSOCK(mode):
        raise SocketInUse(
            f"refusing to serve on {path!r}: the path exists and is not a "
            f"socket"
        )
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(1.0)
    try:
        probe.connect(path)
    except (ConnectionRefusedError, socket.timeout):
        with contextlib.suppress(OSError):
            os.unlink(path)  # stale socket from a dead daemon
    except FileNotFoundError:
        pass  # unlinked between stat and connect: nothing to do
    except OSError as e:
        raise SocketInUse(
            f"refusing to serve on {path!r}: probe failed ({e})"
        ) from None
    else:
        raise SocketInUse(
            f"another daemon is already serving on {path!r}; shut it down "
            f"first (repro client shutdown --socket {path}) or pick a "
            f"different --socket"
        )
    finally:
        probe.close()


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


class Daemon:
    def __init__(self, config: DaemonConfig):
        self.config = config
        self.cache = ScheduleCache(
            config.cache_dir or None, memory_entries=config.memory_entries
        )
        self.metrics = ServerMetrics()
        self.pool = WarmWorkerPool(
            config.jobs, timeout=config.timeout, backlog=config.backlog,
            recycle=config.pool_recycle, metrics=self.metrics,
        )
        self._memo = ResolveMemo()
        self._flights: dict[str, _Flight] = {}
        self._flights_lock = threading.Lock()
        self._stop = threading.Event()
        self._open_conns: set = set()  # stream writers
        self._conns_lock = threading.Lock()
        self._conn_tasks: set = set()
        self._busy_requests = 0
        self.bound_address: Optional[object] = None

    # -- lifecycle ---------------------------------------------------------

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (main thread only)."""
        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, lambda signum, frame: self._stop.set())

    def serve(self) -> None:
        """Bind, accept until asked to stop, then drain.  Blocks."""
        self._export_skeleton_env()
        asyncio.run(self._serve_async())

    def shutdown(self) -> None:
        """Ask the daemon to drain and stop (thread-safe, returns fast)."""
        self._stop.set()

    def _export_skeleton_env(self) -> None:
        """Publish ``skeleton_dir`` to the pool workers (must run before
        ``pool.start()``: warm workers fork at startup and inherit the
        environment)."""
        if self.config.skeleton_dir:
            os.environ["REPRO_SKELETON_CACHE"] = self.config.skeleton_dir

    def _drain_pool(self) -> None:
        drained = self.pool.drain(timeout=self.config.drain_seconds)
        if not drained:
            self.pool.stop()  # stragglers: kill, fail their flights

    # -- the serving loop --------------------------------------------------

    async def _serve_async(self) -> None:
        if self.config.socket_path is not None:
            claim_unix_path(self.config.socket_path)
        self.pool.start()
        loop = asyncio.get_running_loop()
        if self.config.socket_path is not None:
            server = await asyncio.start_unix_server(
                self._serve_async_connection,
                path=self.config.socket_path, limit=STREAM_LIMIT,
            )
            self.bound_address = self.config.socket_path
        else:
            server = await asyncio.start_server(
                self._serve_async_connection,
                host=self.config.host, port=self.config.port,
                limit=STREAM_LIMIT,
            )
            self.bound_address = server.sockets[0].getsockname()
        try:
            while not self._stop.is_set():
                await asyncio.sleep(0.05)
        finally:
            server.close()
            await server.wait_closed()
            # Workers settle their flights inside drain (which runs off
            # the loop, so waiters write their responses meanwhile) ...
            await loop.run_in_executor(None, self._drain_pool)
            deadline = loop.time() + 5.0
            while self._busy_requests and loop.time() < deadline:
                await asyncio.sleep(0.01)
            # ... now cut the readers loose.
            with self._conns_lock:
                writers = list(self._open_conns)
            for writer in writers:
                with contextlib.suppress(Exception):
                    writer.close()
            tasks = [t for t in self._conn_tasks if not t.done()]
            if tasks:
                await asyncio.wait(tasks, timeout=5.0)
            if self.config.socket_path is not None:
                with contextlib.suppress(OSError):
                    os.unlink(self.config.socket_path)

    async def _serve_async_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        with self._conns_lock:
            self._open_conns.add(writer)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return  # orderly EOF
                try:
                    request = protocol.parse_line(line)
                except protocol.ProtocolError as e:
                    self.metrics.count_error("bad-request")
                    writer.write(protocol.encode_message(
                        protocol.error_response(None, "bad-request", str(e))
                    ))
                    await writer.drain()
                    continue
                if request is None:
                    continue  # blank line
                self._busy_requests += 1
                try:
                    response = await self._handle_async(request)
                finally:
                    self._busy_requests -= 1
                writer.write(response)
                await writer.drain()
                if request.get("type") == "shutdown":
                    return
        except (OSError, ValueError, ConnectionError):
            pass  # client went away mid-message; nothing to answer
        finally:
            with self._conns_lock:
                self._open_conns.discard(writer)
            self._conn_tasks.discard(task)
            with contextlib.suppress(Exception):
                writer.close()

    async def _handle_async(self, request: dict) -> bytes:
        t_arrival = time.perf_counter()
        try:
            protocol.validate_request(request)
        except protocol.ProtocolError as e:
            self.metrics.count_error("bad-request")
            return protocol.encode_message(
                protocol.error_response(request, "bad-request", str(e))
            )
        rtype = request["type"]
        self.metrics.count_request(rtype)
        if rtype != "optimize":
            return protocol.encode_message(self._handle_control(request, rtype))

        try:
            program_dict, options_dict, key = self._memo.resolve(request)
        except protocol.ProtocolError as e:
            self.metrics.count_error("bad-request")
            return protocol.encode_message(
                protocol.error_response(request, "bad-request", str(e))
            )
        self.metrics.count_backend(options_dict.get("backend", "python"))

        text, tier = self.cache.get(key)
        self.metrics.observe("lookup", time.perf_counter() - t_arrival)
        if text is not None:
            return self._ok_bytes(request, key, f"hit-{tier}", text, t_arrival)

        if self._stop.is_set():
            self.metrics.count_error("shutting-down")
            return protocol.encode_message(protocol.error_response(
                request, "shutting-down", "daemon is draining; not accepting work"
            ))

        flight, owner = self._join_flight(key, program_dict, options_dict)
        if flight is None:
            self.metrics.count_busy()
            return protocol.encode_message(self._busy_response(request))

        if not await flight.wait_async(self.config.timeout + _WAIT_GRACE):
            self.metrics.count_error("wedged")
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
        self.metrics.count_outcome(cache_tag)
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
        sched_stats = data.get("scheduler_stats") or {}
        self.metrics.count_scheduler(
            sched_stats.get("scheduler_path"),
            sched_stats.get("fallback_reason"),
        )
        self.metrics.count_structural(sched_stats.get("structural_path"))
        # "reduction" appears on tiled rows only when relaxation actually
        # bought a parallel dimension (the serialization rule), so its
        # presence is exactly the "reduction-parallel schedule" signal.
        tiled = data.get("tiled") or {}
        if any(r.get("reduction") for r in tiled.get("rows", ())):
            self.metrics.count_reduction_parallel()

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
                self.metrics.count_error(ev.kind)
        finally:
            flight.settle()

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        in_flight, queued = self.pool.load()
        with self._conns_lock:
            connections = len(self._open_conns)
        return {
            "server": self.metrics.snapshot(
                in_flight=in_flight,
                queue_depth=queued,
                connections=connections,
                jobs=self.pool.jobs,
                backlog=self.pool.backlog,
                skeleton_dir=self.config.skeleton_dir,
            ),
            "cache": self.cache.snapshot(),
        }
