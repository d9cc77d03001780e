"""Tests for the daemon's worker pool: callbacks, backpressure, stop."""

import multiprocessing
import os
import threading
import time

import pytest

from repro.workers import PoolJob, WarmWorkerPool

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="crash/hang injection requires forked workers",
)


def _echo(payload):
    return {"echo": payload}


def _slow(payload):
    time.sleep(payload.get("seconds", 5))
    return "late"


def _crash(payload):
    os._exit(7)


def _boom(payload):
    raise RuntimeError(f"boom on {payload}")


def _crash_if_told(payload):
    """Payload-keyed crash: the same fn serves hostile and benign jobs,
    so it needs no mid-test swapping (warm workers capture fn at fork)."""
    if payload.get("crash"):
        os._exit(7)
    return {"echo": payload}


class _Collector:
    """Collects completion events; on_done runs on the dispatcher thread."""

    def __init__(self, expected: int):
        self.events = []
        self._remaining = expected
        self._done = threading.Event()

    def __call__(self, ev):
        self.events.append(ev)
        self._remaining -= 1
        if self._remaining <= 0:
            self._done.set()

    def wait(self, timeout=30.0):
        assert self._done.wait(timeout), "pool never completed the job(s)"
        return self.events


@pytest.fixture
def pool_factory():
    pools = []

    def make(**kwargs):
        kwargs.setdefault("preload", None)  # tests inject their own fn
        pool = WarmWorkerPool(**kwargs)
        pool.start()
        pools.append(pool)
        return pool

    yield make
    for pool in pools:
        pool.stop()


class TestCompletion:
    def test_ok_job_fires_callback_with_result(self, pool_factory):
        pool = pool_factory(jobs=1, target=_echo)
        done = _Collector(1)
        assert pool.try_submit(PoolJob("k1", {"n": 1}, done))
        (ev,) = done.wait()
        assert ev.kind == "ok"
        assert ev.payload == {"echo": {"n": 1}}

    def test_crash_settles_as_event_and_pool_survives(self, pool_factory):
        pool = pool_factory(jobs=1, target=_crash_if_told)
        done = _Collector(1)
        assert pool.try_submit(PoolJob("k-crash", {"crash": True}, done))
        (ev,) = done.wait()
        assert ev.kind == "crash"
        assert "without reporting" in ev.payload
        assert "exit code 7" in ev.payload

        # the pool keeps dispatching after a worker death
        done2 = _Collector(1)
        assert pool.try_submit(PoolJob("k-after", {"n": 2}, done2))
        assert done2.wait()[0].kind == "ok"

    def test_hung_worker_killed_at_deadline(self, pool_factory):
        pool = pool_factory(jobs=1, timeout=0.5, target=_slow)
        done = _Collector(1)
        t0 = time.perf_counter()
        assert pool.try_submit(PoolJob("k-hang", {"seconds": 60}, done))
        (ev,) = done.wait()
        assert time.perf_counter() - t0 < 30
        assert ev.kind == "timeout"

    def test_raising_job_settles_as_error_with_traceback(self, pool_factory):
        pool = pool_factory(jobs=1, target=_boom)
        done = _Collector(1)
        assert pool.try_submit(PoolJob("k-err", "input-7", done))
        (ev,) = done.wait()
        assert ev.kind == "error"
        assert "Traceback" in ev.payload
        assert "RuntimeError: boom on input-7" in ev.payload

    def test_broken_callback_does_not_kill_dispatcher(self, pool_factory):
        pool = pool_factory(jobs=1, target=_echo)

        def explode(ev):
            raise RuntimeError("callback bug")

        assert pool.try_submit(PoolJob("k-bad-cb", {}, explode))
        done = _Collector(1)
        assert pool.try_submit(PoolJob("k-good", {"n": 3}, done))
        assert done.wait()[0].kind == "ok"


class TestAdmission:
    def test_queue_overflow_rejected(self, pool_factory):
        pool = pool_factory(jobs=1, backlog=1, target=_slow)
        done = _Collector(2)
        assert pool.try_submit(PoolJob("k1", {"seconds": 2}, done))
        assert pool.try_submit(PoolJob("k2", {"seconds": 0}, done))
        # jobs + backlog = 2 admissions; the third is over capacity
        assert not pool.try_submit(PoolJob("k3", {"seconds": 0}, done))
        live, queued = pool.load()
        assert live + queued == 2
        done.wait()

    def test_submissions_refused_while_stopping(self, pool_factory):
        pool = pool_factory(jobs=1, target=_echo)
        pool.drain(timeout=5.0)
        assert not pool.try_submit(PoolJob("k-late", {}, _Collector(1)))


class TestShutdown:
    def test_drain_waits_for_running_jobs(self, pool_factory):
        pool = pool_factory(jobs=2, target=_slow)
        done = _Collector(2)
        pool.try_submit(PoolJob("k1", {"seconds": 0.3}, done))
        pool.try_submit(PoolJob("k2", {"seconds": 0.3}, done))
        assert pool.drain(timeout=30.0)
        assert {ev.kind for ev in done.events} == {"ok"}

    def test_drain_times_out_then_stop_fails_jobs(self, pool_factory):
        pool = pool_factory(jobs=1, target=_slow)
        done = _Collector(1)
        pool.try_submit(PoolJob("k-hang", {"seconds": 60}, done))
        assert not pool.drain(timeout=0.3)
        pool.stop()
        (ev,) = done.wait(timeout=10.0)
        assert ev.kind == "error"
        assert ev.payload == "pool stopped"

    def test_stop_fails_queued_jobs_too(self, pool_factory):
        pool = pool_factory(jobs=1, backlog=2, target=_slow)
        done = _Collector(3)
        for i in range(3):
            assert pool.try_submit(PoolJob(f"k{i}", {"seconds": 60}, done))
        pool.stop()
        events = done.wait(timeout=10.0)
        assert all(ev.kind == "error" for ev in events)
        assert {ev.key.key for ev in events} == {"k0", "k1", "k2"}

    def test_no_worker_outlives_stop(self, pool_factory):
        pool = pool_factory(jobs=2, target=_slow)
        done = _Collector(1)
        assert pool.try_submit(PoolJob("k-hang", {"seconds": 60}, done))
        pool.stop()
        done.wait(timeout=10.0)
        alive = [p for p in multiprocessing.active_children()
                 if p.name == "repro-warm-worker"]
        assert alive == []


class TestWarmPool:
    """Persistence across requests, recycling, and the reuse accounting
    the metrics expose."""

    def test_same_process_serves_consecutive_jobs(self, pool_factory):
        pool = pool_factory(jobs=1, target=_echo)
        done = _Collector(3)
        for i in range(3):
            assert pool.try_submit(PoolJob(f"k{i}", {"n": i}, done))
        events = done.wait()
        pids = {ev.pid for ev in events}
        assert len(pids) == 1, f"expected one persistent worker, got {pids}"
        assert all(ev.kind == "ok" for ev in events)

    def test_metrics_count_spawns_dispatches_reuses(self, pool_factory):
        from repro.server.metrics import ServerMetrics

        metrics = ServerMetrics()
        pool = pool_factory(jobs=1, target=_echo, metrics=metrics)
        done = _Collector(3)
        for i in range(3):
            assert pool.try_submit(PoolJob(f"k{i}", {"n": i}, done))
        done.wait()
        snap = metrics.as_dict()
        assert snap["pool"]["spawns"] == 1
        assert snap["pool"]["dispatches"] == 3
        # the first job went to a never-used worker; the next two reused it
        assert snap["pool"]["reuses"] == 2
        assert snap["pool"]["recycles"] == 0

    def test_worker_recycled_at_limit(self, pool_factory):
        from repro.server.metrics import ServerMetrics

        metrics = ServerMetrics()
        pool = pool_factory(jobs=1, target=_echo, recycle=2, metrics=metrics)
        done = _Collector(4)
        for i in range(4):
            assert pool.try_submit(PoolJob(f"k{i}", {"n": i}, done))
            time.sleep(0.05)  # serialize so recycling lands between jobs
        events = done.wait()
        assert all(ev.kind == "ok" for ev in events)
        # two jobs per worker: the first worker retired after k1, its
        # replacement served k2/k3
        assert len({ev.pid for ev in events}) == 2
        snap = metrics.as_dict()
        assert snap["pool"]["recycles"] >= 1
        assert snap["pool"]["spawns"] >= 2

    def test_crash_replacement_is_a_fresh_process(self, pool_factory):
        pool = pool_factory(jobs=1, target=_crash_if_told)
        done = _Collector(2)
        assert pool.try_submit(PoolJob("k-crash", {"crash": True}, done))
        assert pool.try_submit(PoolJob("k-ok", {"n": 1}, done))
        events = done.wait()
        kinds = {ev.key.key: ev.kind for ev in events}
        assert kinds == {"k-crash": "crash", "k-ok": "ok"}
        pids = {ev.key.key: ev.pid for ev in events}
        assert pids["k-crash"] != pids["k-ok"]

    def test_jobs_spread_across_workers(self, pool_factory):
        pool = pool_factory(jobs=2, target=_slow)
        done = _Collector(2)
        assert pool.try_submit(PoolJob("k1", {"seconds": 0.4}, done))
        assert pool.try_submit(PoolJob("k2", {"seconds": 0.4}, done))
        events = done.wait()
        assert len({ev.pid for ev in events}) == 2
        assert all(ev.kind == "ok" for ev in events)
        # both finished in one 0.4s window, not two serialized ones
        assert all(ev.elapsed < 2.0 for ev in events)
