"""The JSON-lines socket transport under ``repro serve``.

:class:`LineServer` owns everything about the socket that is not what a
request means: claiming and binding a Unix path or TCP port, the
per-connection loop (read a line, parse, validate, answer ``bad-request``,
skip blank lines, close after ``shutdown``), the stop flag and signal
handlers, and the drain (stop accepting, let in-flight requests answer,
close connections, unlink the socket).  The daemon subclasses it and
supplies :meth:`~LineServer.handle` — one validated request in, one encoded
response line out — plus the :meth:`~LineServer.start` and
:meth:`~LineServer.drain` hooks.

Binding a Unix socket never clobbers a live daemon: the path is
probe-connected first, and only a genuinely stale socket (connection
refused) is unlinked — a live one raises :class:`SocketInUse`.  Nor does
the path ever exist without a listener behind it: the socket binds and
listens under a sibling staging name and is then hard-linked into place,
so a client that polls for the path and connects is never refused.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import socket
import stat
import threading
from typing import Optional

from repro.server import protocol
from repro.server.metrics import ServerMetrics

__all__ = ["LineServer", "SocketInUse", "STREAM_LIMIT", "claim_unix_path"]

#: asyncio stream limit: request/response lines carry whole serialized
#: programs and results, far past the 64 KiB default
STREAM_LIMIT = 64 * 1024 * 1024

#: listen(2) backlog, asyncio's own default
_BACKLOG = 100

#: Bytes a connection's transport asks ``recv`` for per readable event, in
#: place of asyncio's 256 KiB.  A 256 KiB buffer lies above glibc's dynamic
#: mmap threshold (128 KiB until a large mapped chunk is freed), so unless a
#: free heap chunk holds it each read maps and unmaps a fresh one: two minor
#: faults and several times the system time per cache hit, in whichever
#: process the threshold did not happen to rise in.  64 KiB stays below that
#: threshold and below glibc's 128 KiB top pad; a longer line takes more
#: reads.
_READ_SIZE = 64 * 1024


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


def _listen_unix(path: str) -> socket.socket:
    """A listening socket published at ``path`` only once it listens.

    A plain ``bind(path)`` makes the path visible before ``listen()``; a
    client connecting in that window gets ECONNREFUSED.  So bind and listen
    under ``path~`` and hard-link that into place (a link, unlike a rename,
    still refuses to replace a socket some racing daemon published since
    :func:`claim_unix_path` looked).  When the staging name cannot be bound
    — one byte longer, it may exceed the AF_UNIX length cap — bind ``path``
    directly, window and all.
    """
    staging = path + "~"
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        # left behind by a process killed between its bind and its link
        with contextlib.suppress(FileNotFoundError):
            os.unlink(staging)
        try:
            sock.bind(staging)
        except OSError:
            sock.bind(path)
            sock.listen(_BACKLOG)
            return sock
        try:
            sock.listen(_BACKLOG)
            os.link(staging, path)
        except FileExistsError:
            raise SocketInUse(
                f"another daemon started serving on {path!r} meanwhile"
            ) from None
        finally:
            os.unlink(staging)
    except BaseException:
        sock.close()
        raise
    return sock


class LineServer:
    """Bind, serve JSON lines until asked to stop, drain.

    ``config`` carries ``socket_path`` / ``host`` / ``port`` (exactly one
    of path and port set).  All connection handling runs on one asyncio
    loop; :meth:`shutdown` and the signal handlers only set a flag the loop
    polls, so they are safe from any thread.
    """

    def __init__(self, config, metrics: ServerMetrics):
        self.config = config
        self.metrics = metrics
        self._stop = threading.Event()
        self._open_conns: set = set()  # stream writers
        self._conns_lock = threading.Lock()
        self._conn_tasks: set = set()
        self._busy_requests = 0
        self.bound_address: Optional[object] = None

    # -- what a server adds ------------------------------------------------

    async def handle(self, request: dict) -> bytes:
        """Answer one validated, counted request.  A
        :class:`~protocol.ProtocolError` raised in here is answered as
        ``bad-request``."""
        raise NotImplementedError

    def start(self) -> None:
        """Hook: the path is claimed, nothing is bound, no loop runs yet."""

    async def drain(self) -> None:
        """Hook: accepting has stopped; in-flight requests may still be
        waiting on whatever this settles."""

    # -- lifecycle ---------------------------------------------------------

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (main thread only)."""
        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, lambda signum, frame: self._stop.set())

    def shutdown(self) -> None:
        """Ask the server to drain and stop (thread-safe, returns fast)."""
        self._stop.set()

    def serve(self) -> None:
        """Bind, accept until asked to stop, then drain.  Blocks."""
        if self.config.socket_path is not None:
            claim_unix_path(self.config.socket_path)
        self.start()
        asyncio.run(self._serve_async())

    async def _serve_async(self) -> None:
        path = self.config.socket_path
        if path is not None:
            server = await asyncio.start_unix_server(
                self._serve_connection, sock=_listen_unix(path),
                limit=STREAM_LIMIT,
            )
            self.bound_address = path
        else:
            server = await asyncio.start_server(
                self._serve_connection,
                host=self.config.host, port=self.config.port,
                limit=STREAM_LIMIT,
            )
            self.bound_address = server.sockets[0].getsockname()
        loop = asyncio.get_running_loop()
        try:
            while not self._stop.is_set():
                await asyncio.sleep(0.05)
        finally:
            server.close()
            await server.wait_closed()
            # Whatever in-flight requests wait on settles inside drain
            # (off the loop, so they write their responses meanwhile) ...
            await self.drain()
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
            if path is not None:
                with contextlib.suppress(OSError):
                    os.unlink(path)

    def _bad_request(self, request: Optional[dict], error: Exception) -> bytes:
        self.metrics.count("errors", key="bad-request")
        return protocol.encode_message(
            protocol.error_response(request, "bad-request", str(error))
        )

    async def _serve_connection(self, reader, writer) -> None:
        writer.transport.max_size = _READ_SIZE
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
                    writer.write(self._bad_request(None, e))
                    await writer.drain()
                    continue
                if request is None:
                    continue  # blank line
                self._busy_requests += 1
                try:
                    protocol.validate_request(request)
                    optimize = request["type"] == "optimize"
                    self.metrics.count(
                        "requests", "optimize_requests" if optimize else None
                    )
                    response = await self.handle(request)
                except protocol.ProtocolError as e:
                    response = self._bad_request(request, e)
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
