"""Tests for the shared worker layer (:mod:`repro.workers`).

``TestSupervisor`` drives the one pool the way the suite engine supervises
its runs — ``recycle=1``, no preload, one fresh worker per job — with tiny
module-level job bodies; ``TestWorkerMain`` drives the worker body itself.
The suite-engine and daemon tests cover the same machinery end to end.
Fork-gated like those: crash/hang jobs rely on forked children.
"""

import multiprocessing
import os
import threading
import time

import pytest

from repro.workers import PoolJob, WarmWorkerPool, mp_context, warm_worker_main

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="crash/hang injection requires forked workers",
)


def _double(payload):
    return payload * 2


def _boom(payload):
    raise RuntimeError(f"boom on {payload}")


def _die(payload):
    os._exit(13)


def _sleep(payload):
    time.sleep(payload)
    return "woke"


def _run(fn, payloads, *, jobs=1, timeout=60.0, stop_early=False):
    """Submit one job per payload to a suite-shaped pool; return the events
    in key order (``stop_early`` stops the pool instead of waiting)."""
    events, settled = {}, threading.Event()

    def done(ev):
        events[ev.key.key] = ev
        if len(events) == len(payloads):
            settled.set()

    pool = WarmWorkerPool(jobs, timeout=timeout, backlog=len(payloads),
                          recycle=1, target=fn, preload=None)
    pool.start()
    try:
        for key, payload in payloads.items():
            assert pool.try_submit(PoolJob(key, payload, done))
        if stop_early:
            pool.stop()
        assert settled.wait(30.0), "pool never settled every job"
    finally:
        pool.stop()
    return [events[key] for key in sorted(events)]


class TestSupervisor:
    def test_ok_event_carries_result(self):
        (ev,) = _run(_double, {"job-1": 21})
        assert (ev.key.key, ev.kind, ev.payload) == ("job-1", "ok", 42)
        assert ev.elapsed > 0
        assert ev.pid is not None

    def test_error_event_carries_traceback(self):
        (ev,) = _run(_boom, {"job-err": "input-7"})
        assert ev.kind == "error"
        assert "RuntimeError" in ev.payload
        assert "boom on input-7" in ev.payload

    def test_silent_death_classified_as_crash(self):
        (ev,) = _run(_die, {"job-crash": None})
        assert ev.kind == "crash"
        assert "without reporting" in ev.payload
        assert "13" in ev.payload

    def test_deadline_kill_classified_as_timeout(self):
        t0 = time.perf_counter()
        (ev,) = _run(_sleep, {"job-hang": 60}, timeout=0.5)
        assert time.perf_counter() - t0 < 30  # killed, not slept out
        assert ev.kind == "timeout"
        assert "deadline" in ev.payload

    def test_many_workers_all_settle(self):
        events = _run(_double, {f"job-{i}": i for i in range(6)}, jobs=2)
        assert [(ev.key.key, ev.payload) for ev in events] == [
            (f"job-{i}", 2 * i) for i in range(6)
        ]
        # recycle=1: every job ran in a process of its own
        assert len({ev.pid for ev in events}) == 6

    def test_shutdown_kills_live_workers(self):
        (ev,) = _run(_sleep, {"job-hang": 60}, stop_early=True)
        assert (ev.kind, ev.payload) == ("error", "pool stopped")
        assert not [p for p in multiprocessing.active_children()
                    if p.name == "repro-warm-worker"]


class TestWorkerMain:
    def test_reports_exactly_one_ok_message(self):
        parent, child = multiprocessing.Pipe(duplex=True)
        parent.send((1, 5))
        parent.send(None)
        warm_worker_main(_double, child)
        assert parent.recv() == (1, "ok", 10)
        with pytest.raises(EOFError):
            parent.recv()  # retired: child end closed after the one reply

    def test_reports_error_with_traceback(self):
        parent, child = multiprocessing.Pipe(duplex=True)
        parent.send((2, "x"))
        parent.send(None)
        warm_worker_main(_boom, child)
        seq, status, payload = parent.recv()
        assert (seq, status) == (2, "error")
        assert "RuntimeError: boom on x" in payload

    def test_none_sentinel_retires_worker_cleanly(self):
        ctx = mp_context()
        parent, child = ctx.Pipe(duplex=True)
        proc = ctx.Process(target=warm_worker_main, args=(_double, child))
        proc.start()
        child.close()
        parent.send((3, 4))
        assert parent.recv() == (3, "ok", 8)
        parent.send(None)
        proc.join(5.0)
        assert proc.exitcode == 0
        with pytest.raises(EOFError):
            parent.recv()
