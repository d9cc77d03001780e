"""Blocking client for the scheduling daemon.

One connection, requests answered in order — the shape scripts and CI
want.  Concurrency is "open more clients"; each :class:`ServerClient` is
not thread-safe and costs one socket.

    from repro.server import ServerClient

    with ServerClient(socket_path="/tmp/repro.sock") as client:
        response = client.optimize("heat-2dp")
        assert response["status"] == "ok"
        schedule = response["result"]["schedule"]

Responses are returned verbatim (header + status + payload) so callers can
inspect ``cache`` tags, ``server_version``, and structured errors;
:meth:`ServerClient.optimize_result` additionally rebuilds a full
:class:`~repro.pipeline.OptimizationResult` from an ``ok`` response.
"""

from __future__ import annotations

import socket
from typing import Optional

from repro import __version__
from repro.server import protocol

__all__ = ["ServerClient", "ServerError"]

DEFAULT_CONNECT_TIMEOUT = 10.0


class ServerError(RuntimeError):
    """A non-``ok`` response, raised by the ``*_result`` conveniences.

    The full response dict is on ``.response`` (``status``, ``kind``,
    ``message``, ...).
    """

    def __init__(self, response: dict):
        self.response = response
        status = response.get("status", "?")
        detail = response.get("message") or response.get("kind") or ""
        super().__init__(f"server answered {status}: {detail}".strip())


class ServerClient:
    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        *,
        timeout: Optional[float] = None,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ):
        """``timeout`` bounds each request round-trip (None = wait forever,
        matching the daemon's own worker deadline)."""
        if (socket_path is None) == (port is None):
            raise ValueError("pass exactly one of socket_path or port")
        if socket_path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(connect_timeout)
            self._sock.connect(socket_path)
        else:
            self._sock = socket.create_connection(
                (host, port), timeout=connect_timeout
            )
        self._sock.settimeout(timeout)
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")

    # -- plumbing ----------------------------------------------------------

    def request(self, obj: dict) -> dict:
        """Send one request, read its response; raises on a dead server."""
        protocol.write_message(self._wfile, obj)
        response = protocol.read_message(self._rfile)
        if response is None:
            raise ConnectionError("server closed the connection mid-request")
        got = response.get("protocol")
        if got != protocol.PROTOCOL_VERSION:
            raise protocol.ProtocolError(
                f"server speaks protocol v{got}, this client v"
                f"{protocol.PROTOCOL_VERSION} "
                f"(server {response.get('server_version')}, "
                f"client {__version__})"
            )
        return response

    def close(self) -> None:
        for f in (self._rfile, self._wfile, self._sock):
            try:
                f.close()
            except OSError:
                pass

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- request types -----------------------------------------------------

    def ping(self) -> dict:
        return self.request({"type": "ping"})

    def stats(self) -> dict:
        return self.request({"type": "stats"})

    def shutdown(self) -> dict:
        return self.request({"type": "shutdown"})

    def optimize(
        self,
        workload: Optional[str] = None,
        *,
        program: Optional[dict] = None,
        options: Optional[dict] = None,
    ) -> dict:
        """One scheduling request; returns the raw response dict.

        Pass either a registered ``workload`` name or ``program``
        (serialized IR from :func:`repro.frontend.serialize.program_to_dict`);
        ``options`` is a partial dict of PipelineOptions overrides.
        """
        request: dict = {"type": "optimize"}
        if workload is not None:
            request["workload"] = workload
        if program is not None:
            request["program"] = program
        if options:
            request["options"] = options
        return self.request(request)

    def optimize_result(self, *args, **kwargs):
        """Like :meth:`optimize` but rebuilds an ``OptimizationResult``;
        raises :class:`ServerError` on any non-``ok`` response."""
        from repro.pipeline import OptimizationResult

        response = self.optimize(*args, **kwargs)
        if response.get("status") != "ok":
            raise ServerError(response)
        # the response line is parsed already: rebuild from the dict
        return OptimizationResult._from_payload(response["result"])
