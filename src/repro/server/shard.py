"""Cache sharding: a consistent-hash ring and the thin request router.

``repro route`` runs a :class:`Router` in front of N ordinary daemons
("shards"), partitioning the content-addressed cache by key: every
``optimize`` request resolves to its cache key (the same
:func:`~repro.server.cache.cache_key` the daemon itself would compute) and
is forwarded to the one shard that owns that key on the
:class:`ShardRing`.  Each key therefore has exactly one home — one shard's
memory LRU warms for it, one disk store holds it, and single-flight
coalescing keeps working fleet-wide because concurrent requests for a key
all land on the same daemon.

The ring is the textbook consistent-hash construction: each shard endpoint
is hashed onto the circle at :data:`VNODES` points (virtual nodes smooth
the load split), a key is owned by the first point clockwise of its hash,
and adding or removing one shard remaps only ~1/N of the keyspace — a
grown fleet keeps most of its warm cache.

The router is deliberately thin: it resolves + hashes (memoized for
workload-name requests), picks the shard, forwards the client's request
line, and relays the shard's response line back *verbatim* — responses
through the router are byte-identical to talking to the shard directly.
It computes no schedules, caches no results, and holds no state beyond
idle shard connections (reused across requests, reopened once on a broken
pipe).  ``ping`` is answered locally; ``stats`` aggregates the fleet;
``shutdown`` fans out to every shard before the router itself drains.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.server import protocol
from repro.server.listener import STREAM_LIMIT, LineServer
from repro.server.metrics import ServerMetrics
from repro.server.resolve import ResolveMemo

__all__ = ["Router", "RouterConfig", "ShardRing", "parse_endpoint"]

#: virtual nodes per shard endpoint; 64 keeps the max/mean load ratio of a
#: few-shard fleet within a few percent without a noticeable ring
VNODES = 64


def parse_endpoint(endpoint: str) -> tuple[str, ...]:
    """``"host:port"`` → ``("tcp", host, port)``; anything else is a Unix
    socket path → ``("unix", path)``."""
    host, sep, port = endpoint.rpartition(":")
    if sep and port.isdigit() and "/" not in host:
        return ("tcp", host or "127.0.0.1", int(port))
    return ("unix", endpoint)


def _ring_hash(text: str) -> int:
    return int.from_bytes(
        hashlib.sha256(text.encode("utf-8")).digest()[:8], "big"
    )


class ShardRing:
    """Consistent-hash ring over shard endpoint strings.

    Deterministic across processes and runs: placement depends only on the
    endpoint strings, so a router restart (or a second router in front of
    the same fleet) routes identically.
    """

    def __init__(self, endpoints: Sequence[str], vnodes: int = VNODES):
        if not endpoints:
            raise ValueError("a shard ring needs at least one endpoint")
        if len(set(endpoints)) != len(endpoints):
            raise ValueError(f"duplicate shard endpoints: {list(endpoints)}")
        self.endpoints = list(endpoints)
        self.vnodes = vnodes
        points = []
        for endpoint in self.endpoints:
            for i in range(vnodes):
                points.append((_ring_hash(f"{endpoint}#{i}"), endpoint))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [e for _, e in points]

    def owner(self, key: str) -> str:
        """The endpoint owning ``key`` (first ring point clockwise)."""
        idx = bisect.bisect_right(self._hashes, _ring_hash(key))
        return self._owners[idx % len(self._owners)]

    def spread(self, keys: Sequence[str]) -> dict[str, int]:
        """Key count per endpoint — for tests and ``stats`` curiosity."""
        out = {e: 0 for e in self.endpoints}
        for key in keys:
            out[self.owner(key)] += 1
        return out


@dataclass
class RouterConfig:
    shards: Sequence[str] = ()          # daemon endpoints (unix paths or host:port)
    socket_path: Optional[str] = None   # where the router itself listens
    host: str = "127.0.0.1"
    port: Optional[int] = None
    connect_timeout: float = 10.0
    vnodes: int = VNODES

    def __post_init__(self) -> None:
        if (self.socket_path is None) == (self.port is None):
            raise ValueError("configure exactly one of socket_path or port")
        if not self.shards:
            raise ValueError("a router needs at least one shard endpoint")


class _ShardLink:
    """Idle-connection pool for one shard (all use is on the event loop)."""

    def __init__(self, endpoint: str, connect_timeout: float):
        self.endpoint = endpoint
        self.connect_timeout = connect_timeout
        self.idle: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    async def _open(self):
        kind = parse_endpoint(self.endpoint)
        if kind[0] == "unix":
            opener = asyncio.open_unix_connection(kind[1], limit=STREAM_LIMIT)
        else:
            opener = asyncio.open_connection(kind[1], kind[2], limit=STREAM_LIMIT)
        return await asyncio.wait_for(opener, self.connect_timeout)

    async def roundtrip(self, line: bytes) -> bytes:
        """Send one request line, return the shard's response line verbatim.

        A pooled connection may have died since it was parked (daemon
        restart, idle timeout); one retry on a fresh connection covers
        that, and a second failure is the shard's problem, not the pool's.
        """
        for attempt in (0, 1):
            fresh = not self.idle
            reader, writer = self.idle.pop() if self.idle else await self._open()
            try:
                writer.write(line)
                await writer.drain()
                response = await reader.readline()
                if not response:
                    raise ConnectionError("shard closed the connection")
            except (OSError, ConnectionError, asyncio.IncompleteReadError):
                with contextlib.suppress(Exception):
                    writer.close()
                if fresh or attempt:
                    raise
                continue  # stale pooled connection: retry on a fresh one
            self.idle.append((reader, writer))
            return response
        raise ConnectionError("unreachable")  # pragma: no cover

    def close(self) -> None:
        idle, self.idle = self.idle, []
        for _, writer in idle:
            with contextlib.suppress(Exception):
                writer.close()


class Router(LineServer):
    """The thin routing tier in front of a sharded daemon fleet."""

    def __init__(self, config: RouterConfig):
        super().__init__(config, ServerMetrics())
        self.ring = ShardRing(config.shards, vnodes=config.vnodes)
        self._memo = ResolveMemo()
        self._links = {
            endpoint: _ShardLink(endpoint, config.connect_timeout)
            for endpoint in self.ring.endpoints
        }

    async def _serve_async(self) -> None:
        try:
            await super()._serve_async()
        finally:
            # after the last client connection is gone: a roundtrip still
            # in flight would park its shard connection again
            for link in self._links.values():
                link.close()

    # -- request routing ---------------------------------------------------

    async def handle(self, request: dict, line: bytes) -> bytes:
        rtype = request["type"]
        if rtype == "ping":
            return protocol.encode_message(
                {**protocol.response_header(request), "status": "ok"}
            )
        if rtype == "stats":
            return protocol.encode_message(await self._stats(request))
        if rtype == "shutdown":
            return protocol.encode_message(await self._shutdown_fleet(request))
        return await self._route_optimize(line, request)

    async def _route_optimize(self, line: bytes, request: dict) -> bytes:
        _, _, key = self._memo.resolve(request)
        endpoint = self.ring.owner(key)
        self.metrics.count("shard_routes", key=endpoint)
        try:
            return await self._links[endpoint].roundtrip(line)
        except (OSError, ConnectionError, asyncio.TimeoutError) as e:
            self.metrics.count("errors", key="shard-unreachable")
            return protocol.encode_message(protocol.error_response(
                request, "error",
                f"shard {endpoint!r} unreachable: {e}",
            ))

    async def _stats(self, request: dict) -> dict:
        shards: dict[str, dict] = {}
        for endpoint, link in self._links.items():
            probe = protocol.encode_message({"type": "stats"})
            try:
                reply = protocol.parse_line(await link.roundtrip(probe))
                shards[endpoint] = reply.get("stats", {})
            except (OSError, ConnectionError, ValueError, asyncio.TimeoutError) as e:
                shards[endpoint] = {"error": str(e)}
        return {
            **protocol.response_header(request),
            "status": "ok",
            "stats": {
                "router": self.metrics.as_dict(
                    shards=list(self.ring.endpoints),
                ),
                "shards": shards,
            },
        }

    async def _shutdown_fleet(self, request: dict) -> dict:
        """Forward shutdown to every shard, then drain the router itself."""
        results: dict[str, str] = {}
        for endpoint, link in self._links.items():
            probe = protocol.encode_message({"type": "shutdown"})
            try:
                reply = protocol.parse_line(await link.roundtrip(probe))
                results[endpoint] = reply.get("status", "?")
            except (OSError, ConnectionError, ValueError, asyncio.TimeoutError) as e:
                results[endpoint] = f"error: {e}"
        self.shutdown()
        return {
            **protocol.response_header(request),
            "status": "ok",
            "draining": True,
            "shards": results,
        }
