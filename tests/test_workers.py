"""Tests for the shared worker supervision layer (:mod:`repro.workers`).

These exercise the supervisor directly with tiny module-level job bodies;
the suite-engine and daemon tests cover the same machinery end to end.
Fork-gated like those: crash/hang jobs rely on forked children.
"""

import multiprocessing
import os
import time

import pytest

from repro.workers import WorkerEvent, WorkerSupervisor, worker_main

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


def _drain(sup, deadline=30.0):
    """Poll until every spawned worker settles; return all events."""
    events = []
    t0 = time.perf_counter()
    while sup.live_count and time.perf_counter() - t0 < deadline:
        events.extend(sup.poll(timeout=1.0))
    return events


class TestSupervisor:
    def test_ok_event_carries_result(self):
        sup = WorkerSupervisor(_double)
        sup.spawn("job-1", 21)
        (ev,) = _drain(sup)
        assert ev == WorkerEvent("job-1", "ok", 42, ev.elapsed, ev.pid)
        assert ev.elapsed > 0
        assert ev.pid is not None

    def test_error_event_carries_traceback(self):
        sup = WorkerSupervisor(_boom)
        sup.spawn("job-err", "input-7")
        (ev,) = _drain(sup)
        assert ev.kind == "error"
        assert "RuntimeError" in ev.payload
        assert "boom on input-7" in ev.payload

    def test_silent_death_classified_as_crash(self):
        sup = WorkerSupervisor(_die)
        sup.spawn("job-crash", None)
        (ev,) = _drain(sup)
        assert ev.kind == "crash"
        assert "without reporting" in ev.payload
        assert "13" in ev.payload

    def test_deadline_kill_classified_as_timeout(self):
        sup = WorkerSupervisor(_sleep)
        sup.spawn("job-hang", 60, timeout=0.5)
        t0 = time.perf_counter()
        (ev,) = _drain(sup)
        assert time.perf_counter() - t0 < 30  # killed, not slept out
        assert ev.kind == "timeout"
        assert "deadline" in ev.payload
        assert sup.live_count == 0

    def test_many_workers_all_settle(self):
        sup = WorkerSupervisor(_double)
        for i in range(6):
            sup.spawn(f"job-{i}", i)
        events = _drain(sup)
        assert sorted((ev.key, ev.payload) for ev in events) == [
            (f"job-{i}", 2 * i) for i in range(6)
        ]

    def test_shutdown_kills_live_workers(self):
        sup = WorkerSupervisor(_sleep)
        handle = sup.spawn("job-hang", 60)
        assert sup.live_count == 1
        sup.shutdown()
        assert sup.live_count == 0
        handle.proc.join(5.0)
        assert not handle.proc.is_alive()


class TestWorkerMain:
    def test_reports_exactly_one_ok_message(self):
        parent, child = multiprocessing.Pipe(duplex=False)
        worker_main(_double, 5, child)
        assert parent.recv() == ("ok", 10)
        with pytest.raises(EOFError):
            parent.recv()  # child end closed after the single report

    def test_reports_error_with_traceback(self):
        parent, child = multiprocessing.Pipe(duplex=False)
        worker_main(_boom, "x", child)
        status, payload = parent.recv()
        assert status == "error"
        assert "RuntimeError: boom on x" in payload
