"""The one worker pool: pre-forked workers, deadline kill, crash classification.

Two subsystems run jobs in child processes — the parallel suite engine
(:mod:`repro.suite.runner`) and the serving daemon
(:mod:`repro.server.daemon`) — and both run them on :class:`WarmWorkerPool`,
so the spawn → wait → deadline-kill → crash-classify loop exists once.
Policy — retries, manifests, caches, admission replies — stays with the
caller.  The daemon keeps ``jobs`` persistent warm workers, forked after its
``preload`` hook has imported the pipeline and recycled after ``recycle``
requests (bounding leak accumulation); the suite runs at ``recycle=1``, one
fresh fork per run, so no run sees another run's process state.

Child contract (:func:`warm_worker_main`): the worker runs ``fn(payload)``
per job and replies ``(seq, "ok", result)``; any raise is caught and sent as
``(seq, "error", traceback_text)``; a child that dies without replying
(signal, ``os._exit``, broken pipe) surfaces as a ``crash`` event and is
replaced, as is a child that outlives its deadline (a ``timeout`` event).
``fn`` must be a module-level callable so the spawn start method keeps
working where fork is unavailable.

Backpressure is the bounded queue: ``try_submit`` returns ``False`` once
``live + queued`` reaches ``jobs + backlog``, which the daemon turns into
an explicit ``busy`` response instead of unbounded latency.

The dispatcher thread blocks on the worker pipes *plus* a self-pipe;
``try_submit`` writes one byte to wake it, so submission latency is a pipe
write, not a poll interval.  Only the dispatcher thread ever touches worker
processes — kills and respawns included — so there is no cross-thread
process management anywhere.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait as conn_wait
from typing import Callable, Optional

__all__ = [
    "DEFAULT_RECYCLE",
    "DEFAULT_TIMEOUT",
    "PoolJob",
    "WarmWorkerPool",
    "WorkerEvent",
    "kill_process",
    "mp_context",
    "warm_worker_main",
]

#: per-job worker deadline, in seconds (suite runs and daemon requests alike)
DEFAULT_TIMEOUT = 900.0

#: warm workers are retired (and replaced by a fresh fork) after this many
#: requests, so slow leaks in scheduling code cannot accumulate forever
DEFAULT_RECYCLE = 64


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


def warm_worker_main(fn, conn) -> None:
    """Worker body: serve jobs off the pipe until retired.

    The parent sends ``(seq, payload)`` tuples and reads back
    ``(seq, "ok" | "error", result)`` — the sequence number lets it match
    replies to dispatches.  A ``None`` message is the retirement sentinel;
    pipe EOF (parent died) retires the worker too.  A raising job is a
    structured ``error`` outcome and only a silent death (signal,
    ``os._exit``) reads as a crash.
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
class WorkerEvent:
    """A settled job, classified.

    ``kind`` is ``ok`` (worker replied a result, in ``payload``), ``error``
    (worker replied a traceback), ``crash`` (worker died without replying),
    or ``timeout`` (the pool killed it past its deadline).  ``elapsed`` is
    the wall time of this attempt only.
    """

    key: object
    kind: str
    payload: object
    elapsed: float
    pid: Optional[int] = None


@dataclass
class PoolJob:
    key: str
    payload: dict
    on_done: Callable[[WorkerEvent], None]


@dataclass
class _PoolState:
    queued: list = field(default_factory=list)
    live: int = 0
    stopping: bool = False   # no new submissions; finish what is queued
    kill: bool = False       # abandon everything now


@dataclass
class _WarmWorker:
    """One persistent child: its pipe, its load history, its current job."""

    proc: object
    conn: object
    jobs_done: int = 0
    job: Optional[PoolJob] = None
    seq: int = 0
    started: float = 0.0
    deadline: float = math.inf


class WarmWorkerPool:
    """Bounded pool of pre-forked persistent workers with recycling.

    ``on_done`` callbacks run on the dispatcher thread and must be quick
    (a cache store plus a waiter wake-up); anything slow would serialize
    job completions behind it.

    ``fn`` (the ``target``) is captured at each fork, so swapping it (tests
    inject scripted behavior this way) affects workers forked afterwards —
    including the replacements forked after a crash, timeout, or recycle.
    ``preload``, when given, runs once in the parent before the first fork.

    ``metrics``, when given, receives pool-reuse accounting through
    ``metrics.count``: ``pool.spawns`` per fork, ``pool.dispatches`` per
    job handed to a worker (plus ``pool.reuses`` when that worker has
    already served at least one request), and ``pool.recycles`` per worker
    retired at the ``recycle`` limit.
    """

    def __init__(
        self,
        jobs: int = 2,
        *,
        timeout: float = DEFAULT_TIMEOUT,
        backlog: Optional[int] = None,
        recycle: int = DEFAULT_RECYCLE,
        target: Callable,
        metrics=None,
        preload: Optional[Callable] = None,
    ):
        self.jobs = max(1, int(jobs))
        self.timeout = timeout
        self.backlog = 2 * self.jobs if backlog is None else max(0, int(backlog))
        self.recycle = max(1, int(recycle))
        self.fn = target
        self.metrics = metrics
        self.preload = preload
        self._ctx = mp_context()
        self._lock = threading.Lock()
        self._state = _PoolState()
        self._drained = threading.Condition(self._lock)
        self._workers: list[_WarmWorker] = []  # dispatcher thread only
        self._seq = 0
        self._wake_r: Optional[int] = None
        self._wake_w: Optional[int] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self.preload is not None:
            self.preload()
        self._wake_r, self._wake_w = os.pipe()
        self._workers = [self._spawn_worker() for _ in range(self.jobs)]
        self._thread = threading.Thread(
            target=self._dispatch, name="repro-warm-pool", daemon=True
        )
        self._thread.start()

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"x")
        except (OSError, TypeError):
            pass  # dispatcher already gone (or never started)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop accepting work and wait for queued + live jobs to settle.

        Returns ``False`` if jobs were still running when ``timeout``
        expired; call :meth:`stop` afterwards to kill the stragglers.
        """
        with self._lock:
            self._state.stopping = True
        self._wake()
        with self._lock:
            settled = self._drained.wait_for(
                lambda: not self._state.queued and not self._state.live,
                timeout=timeout,
            )
        if settled and self._thread is not None:
            self._thread.join(timeout=5.0)
        return settled

    def stop(self) -> None:
        """Hard stop: kill live workers, fail queued and in-flight jobs."""
        with self._lock:
            self._state.stopping = True
            self._state.kill = True
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    # -- submission --------------------------------------------------------

    def load(self) -> tuple[int, int]:
        """Point-in-time ``(in_flight, queued)`` for metrics gauges."""
        with self._lock:
            return self._state.live, len(self._state.queued)

    def try_submit(self, job: PoolJob) -> bool:
        """Queue one job; ``False`` means over capacity (caller says busy)."""
        with self._lock:
            if self._state.stopping:
                return False
            if self._state.live + len(self._state.queued) >= self.jobs + self.backlog:
                return False
            self._state.queued.append(job)
        self._wake()
        return True

    # -- dispatcher thread -------------------------------------------------

    def _spawn_worker(self) -> _WarmWorker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=warm_worker_main,
            args=(self.fn, child_conn),
            name="repro-warm-worker",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        if self.metrics is not None:
            self.metrics.count("pool.spawns")
        return _WarmWorker(proc=proc, conn=parent_conn)

    def _retire_worker(self, worker: _WarmWorker, graceful: bool = True) -> None:
        """Stop one child and reap it; the caller replaces it if needed."""
        if graceful and worker.proc.is_alive():
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass
            worker.proc.join(1.0)
        if worker.proc.is_alive():
            kill_process(worker.proc)
        else:
            worker.proc.join()
        try:
            worker.conn.close()
        except OSError:
            pass

    def _settle(self, job: PoolJob, ev: WorkerEvent) -> None:
        with self._lock:
            self._state.live -= 1
            self._drained.notify_all()
        try:
            job.on_done(ev)
        except Exception:
            pass  # a broken callback must not kill the pool

    def _assign_locked(self) -> None:
        """Hand queued jobs to idle workers (caller holds the lock)."""
        for worker in self._workers:
            if worker.job is not None or not self._state.queued:
                continue
            job = self._state.queued.pop(0)
            self._seq += 1
            worker.job = job
            worker.seq = self._seq
            worker.started = time.perf_counter()
            worker.deadline = (
                math.inf if self.timeout is None
                else worker.started + self.timeout
            )
            self._state.live += 1
            try:
                worker.conn.send((worker.seq, job.payload))
            except (OSError, ValueError):
                # dead worker discovered at dispatch: fail over in place
                worker.job = None
                self._state.queued.insert(0, job)
                self._state.live -= 1
                self._replace(worker)
                continue
            if self.metrics is not None:
                self.metrics.count(
                    "pool.dispatches", "pool.reuses" if worker.jobs_done else None
                )

    def _replace(self, worker: _WarmWorker, graceful: bool = False) -> None:
        self._retire_worker(worker, graceful=graceful)
        self._workers.remove(worker)
        self._workers.append(self._spawn_worker())

    def _on_readable(self, worker: _WarmWorker) -> None:
        try:
            msg = worker.conn.recv()
        except (EOFError, OSError):
            # the child died: a crash if it owed us a result, otherwise a
            # silent idle death — either way, replace it
            job, started = worker.job, worker.started
            worker.job = None
            worker.proc.join()
            code = worker.proc.exitcode
            pid = worker.proc.pid
            self._replace(worker)
            if job is not None:
                self._settle(job, WorkerEvent(
                    job, "crash",
                    f"worker died without reporting (exit code {code})",
                    time.perf_counter() - started, pid,
                ))
            return
        seq, status, payload = msg
        if worker.job is None or seq != worker.seq:
            return  # stale reply from a job we already killed
        job, elapsed = worker.job, time.perf_counter() - worker.started
        worker.job = None
        worker.jobs_done += 1
        if worker.jobs_done >= self.recycle:
            if self.metrics is not None:
                self.metrics.count("pool.recycles")
            self._replace(worker, graceful=True)
        self._settle(job, WorkerEvent(job, status, payload, elapsed,
                                      worker.proc.pid))

    def _kill_overdue(self) -> None:
        now = time.perf_counter()
        for worker in list(self._workers):
            if worker.job is None or now < worker.deadline:
                continue
            job, pid = worker.job, worker.proc.pid
            worker.job = None
            self._replace(worker)
            self._settle(job, WorkerEvent(
                job, "timeout",
                f"exceeded {self.timeout:.0f}s deadline",
                now - worker.started, pid,
            ))

    def _dispatch(self) -> None:
        try:
            while True:
                with self._lock:
                    if self._state.kill:
                        break
                    self._assign_locked()
                    if (
                        self._state.stopping
                        and not self._state.queued
                        and not self._state.live
                    ):
                        break
                busy_deadlines = [
                    w.deadline for w in self._workers
                    if w.job is not None and w.deadline is not math.inf
                ]
                wait_for = None
                if busy_deadlines:
                    wait_for = max(
                        0.0, min(busy_deadlines) - time.perf_counter()
                    ) + 0.01
                ready = conn_wait(
                    [w.conn for w in self._workers] + [self._wake_r],
                    timeout=wait_for,
                )
                if self._wake_r in ready:
                    try:
                        os.read(self._wake_r, 4096)
                    except OSError:
                        pass
                ready_set = set(ready)
                for worker in list(self._workers):
                    if worker.conn in ready_set:
                        self._on_readable(worker)
                self._kill_overdue()
        finally:
            # Kill path (or an unexpected dispatcher error): fail whatever
            # is left so no waiter blocks forever, then reap the children.
            abandoned = [w.job for w in self._workers if w.job is not None]
            with self._lock:
                abandoned += self._state.queued
                self._state.queued = []
                self._state.live = 0
                graceful = not self._state.kill
                self._drained.notify_all()
            for worker in self._workers:
                self._retire_worker(worker, graceful=graceful)
            self._workers = []
            for job in abandoned:
                try:
                    job.on_done(WorkerEvent(job, "error", "pool stopped", 0.0))
                except Exception:
                    pass
            try:
                os.close(self._wake_r)
                os.close(self._wake_w)
            except (OSError, TypeError):
                pass
