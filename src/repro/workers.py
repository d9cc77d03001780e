"""Shared worker-process supervision: spawn, report, deadline kill.

Two subsystems run jobs in child processes — the parallel suite engine
(:mod:`repro.suite.runner`, one short-lived process per run on
:class:`WorkerSupervisor`) and the serving daemon's pool
(:mod:`repro.server.pool`, persistent workers on
:func:`warm_worker_main`).  Both need the same machinery: fork a child
that reports ``("ok" | "error", payload)`` over a pipe, wait on many
children at once, kill the ones that outlive their deadline, and classify
a silent death as a *crash* rather than a result.  That machinery lives
here so the two callers cannot drift apart; policy — retries, manifests,
caches, admission control — stays with the caller.

Child contract (:func:`worker_main`): the spawn target runs
``fn(payload)`` and sends ``("ok", result)``; any raise is caught and sent
as ``("error", traceback_text)``; a child that dies without sending (signal,
``os._exit``, broken pipe) surfaces as a ``crash`` event.  ``fn`` must be a
module-level callable so the spawn start method keeps working where fork is
unavailable.

Parent contract (:class:`WorkerSupervisor`): :meth:`~WorkerSupervisor.spawn`
starts one child per job, :meth:`~WorkerSupervisor.poll` performs one
``multiprocessing.connection.wait`` round and returns settled
:class:`WorkerEvent` records (``ok``/``error``/``crash``/``timeout``).
"""

from __future__ import annotations

import math
import multiprocessing
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait as conn_wait
from typing import Callable, Optional

__all__ = [
    "WorkerEvent",
    "WorkerHandle",
    "WorkerSupervisor",
    "kill_process",
    "mp_context",
    "warm_worker_main",
    "worker_main",
]


def mp_context():
    """Fork where available (Linux): the child inherits the loaded workload
    registry and warm polyhedral caches, which is both faster than a cold
    import and what lets tests inject hostile workloads."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def kill_process(proc) -> None:
    """Terminate, escalating to SIGKILL if the child ignores SIGTERM."""
    proc.terminate()
    proc.join(2.0)
    if proc.is_alive():
        proc.kill()
        proc.join()


def worker_main(fn: Callable, payload, conn) -> None:
    """Child process body: run ``fn(payload)``, report exactly one message."""
    try:
        result = fn(payload)
        conn.send(("ok", result))
    except BaseException:
        # A raising job is a structured outcome, not a crash.
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass  # parent gone or pipe broken: dying reads as a crash
    finally:
        conn.close()


def warm_worker_main(fn, conn) -> None:
    """Persistent child body: serve jobs off the pipe until retired.

    The parent sends ``(seq, payload)`` tuples and reads back
    ``(seq, "ok" | "error", result)`` — the sequence number lets it match
    replies to dispatches.  A ``None`` message is the retirement sentinel;
    pipe EOF (parent died) retires the worker too.  As with
    :func:`worker_main`, a raising job is a structured ``error`` outcome
    and only a silent death (signal, ``os._exit``) reads as a crash.
    """
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        seq, payload = msg
        try:
            reply = (seq, "ok", fn(payload))
        except BaseException:
            reply = (seq, "error", traceback.format_exc())
        try:
            conn.send(reply)
        except Exception:
            break  # parent gone or pipe broken: dying reads as a crash
    try:
        conn.close()
    except Exception:
        pass


@dataclass
class WorkerHandle:
    """One live child: its identity token plus process bookkeeping."""

    key: object
    proc: object
    conn: object
    started: float
    timeout: Optional[float]

    def deadline(self) -> float:
        return math.inf if self.timeout is None else self.started + self.timeout


@dataclass
class WorkerEvent:
    """A settled worker, classified.

    ``kind`` is ``ok`` (child reported a result, in ``payload``), ``error``
    (child reported a traceback), ``crash`` (child died without reporting),
    or ``timeout`` (parent killed it past its deadline).  ``elapsed`` is
    the wall time of this attempt only.
    """

    key: object
    kind: str
    payload: object
    elapsed: float
    pid: Optional[int] = None


class WorkerSupervisor:
    """Owns the live worker processes for one event loop.

    Single-threaded by design: one thread spawns and polls.  Callers layer
    their own policy (slot limits, retries, queues) on top.
    """

    def __init__(self, fn: Callable, ctx=None):
        self.fn = fn
        self.ctx = ctx or mp_context()
        self._live: dict[object, WorkerHandle] = {}  # read-conn -> handle

    @property
    def live_count(self) -> int:
        return len(self._live)

    def spawn(
        self,
        key,
        payload,
        *,
        timeout: Optional[float] = None,
        name: Optional[str] = None,
    ) -> WorkerHandle:
        """Start one child running ``fn(payload)``; never blocks."""
        parent_conn, child_conn = self.ctx.Pipe(duplex=False)
        proc = self.ctx.Process(
            target=worker_main,
            args=(self.fn, payload, child_conn),
            name=name or "repro-worker",
            daemon=True,
        )
        proc.start()
        child_conn.close()  # parent keeps only the read end
        handle = WorkerHandle(key, proc, parent_conn, time.perf_counter(), timeout)
        self._live[parent_conn] = handle
        return handle

    def poll(self, timeout: Optional[float] = None) -> list[WorkerEvent]:
        """One wait round: reap reporters, kill the overdue, return events.

        Blocks until a worker settles, the earliest worker deadline
        passes, or ``timeout`` elapses — whichever is first.
        """
        if not self._live:
            return []

        deadlines = [
            h.deadline() for h in self._live.values() if h.timeout is not None
        ]
        wait_for = timeout
        if deadlines:
            until_deadline = max(0.0, min(deadlines) - time.perf_counter()) + 0.01
            wait_for = (
                until_deadline if wait_for is None else min(wait_for, until_deadline)
            )

        ready = conn_wait(list(self._live), timeout=wait_for)

        events: list[WorkerEvent] = []
        for conn in ready:
            handle = self._live.pop(conn)
            elapsed = time.perf_counter() - handle.started
            pid = handle.proc.pid
            try:
                status, payload = conn.recv()
            except (EOFError, OSError):
                handle.proc.join()
                code = handle.proc.exitcode
                events.append(WorkerEvent(
                    handle.key, "crash",
                    f"worker died without reporting (exit code {code})",
                    elapsed, pid,
                ))
            else:
                handle.proc.join()
                events.append(WorkerEvent(handle.key, status, payload, elapsed, pid))
            finally:
                conn.close()

        now = time.perf_counter()
        overdue = [h for h in self._live.values() if now >= h.deadline()]
        for handle in overdue:
            del self._live[handle.conn]
            kill_process(handle.proc)
            handle.conn.close()
            events.append(WorkerEvent(
                handle.key, "timeout",
                f"exceeded {handle.timeout:.0f}s deadline",
                now - handle.started, handle.proc.pid,
            ))
        return events

    def shutdown(self) -> None:
        """Kill every live worker; leaves no orphans behind."""
        for handle in self._live.values():
            kill_process(handle.proc)
            handle.conn.close()
        self._live.clear()
