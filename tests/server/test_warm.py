"""Tests for ``repro warm``: pre-populating the cache over the matrix.

A scripted daemon serves a real workload matrix (the motivation figures —
resolution is real, only the scheduling work is stubbed), and warming is
checked for the property that matters: after a warm pass, a plain client
request for any cell is a cache hit.  Fork-gated like the daemon tests.
"""

import json
import multiprocessing
import threading
import time

import pytest

from repro.pipeline import RESULT_FORMAT_VERSION
from repro.server import Daemon, DaemonConfig, ServerClient, warm_cache
from repro.suite.matrix import build_matrix

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="behavior injection requires forked workers",
)


def _fast(payload):
    return json.dumps({
        "version": RESULT_FORMAT_VERSION,
        "marker": payload["program"]["name"],
    })


def _slowish(payload):
    time.sleep(0.3)
    return _fast(payload)


@pytest.fixture
def daemon_factory(tmp_path):
    started = []

    def make(fn=_fast, **cfg):
        cfg.setdefault("jobs", 2)
        cfg.setdefault("drain_seconds", 2.0)
        cfg.setdefault("cache_dir", str(tmp_path / "cache"))
        config = DaemonConfig(
            socket_path=str(tmp_path / f"d{len(started)}.sock"), **cfg
        )
        daemon = Daemon(config)
        daemon.pool.fn = fn
        thread = threading.Thread(target=daemon.serve, daemon=True)
        thread.start()
        deadline = time.time() + 10
        # bound_address is set once the socket *listens*; the path alone
        # appears at bind(), a moment before connect() stops being refused
        while daemon.bound_address is None:
            assert thread.is_alive(), "daemon died during startup"
            assert time.time() < deadline, "daemon never bound its socket"
            time.sleep(0.01)
        started.append((daemon, thread))
        return daemon

    yield make
    for daemon, thread in started:
        daemon.shutdown()
        thread.join(timeout=20)
        assert not thread.is_alive()


class TestClientRequest:
    def test_spec_becomes_an_optimize_request(self):
        spec = build_matrix(category="motivation")[0]
        request = spec.client_request()
        assert request["type"] == "optimize"
        assert request["workload"] == spec.workload
        assert request["options"] == spec.options.as_dict()


class TestWarmCache:
    def test_warm_pass_populates_every_cell(self, daemon_factory):
        daemon = daemon_factory()
        specs = build_matrix(category="motivation")
        report = warm_cache(
            specs, socket_path=daemon.config.socket_path, jobs=2
        )
        assert len(report.outcomes) == len(specs)
        assert report.failed == []
        assert report.computed == len(specs)
        assert report.already_warm == 0
        # warming computed exactly the entries real requests look up: a
        # bare client request (daemon resolves the paper flags itself) hits
        with ServerClient(socket_path=daemon.config.socket_path) as client:
            for spec in specs:
                resp = client.optimize(spec.workload)
                assert resp["status"] == "ok"
                assert resp["cache"].startswith("hit-"), spec.run_id

    def test_second_pass_is_all_hits(self, daemon_factory):
        daemon = daemon_factory()
        specs = build_matrix(category="motivation")
        first = warm_cache(specs, socket_path=daemon.config.socket_path)
        again = warm_cache(specs, socket_path=daemon.config.socket_path)
        assert first.computed == len(specs)
        assert again.computed == 0
        assert again.already_warm == len(specs)
        assert again.failed == []

    def test_busy_responses_are_retried_not_failed(self, daemon_factory):
        # one worker, zero backlog, slow jobs, more clients than slots:
        # admission control answers busy constantly; warming rides it out
        daemon = daemon_factory(fn=_slowish, jobs=1, backlog=0)
        specs = build_matrix(category="motivation")
        report = warm_cache(
            specs, socket_path=daemon.config.socket_path,
            jobs=4, busy_backoff=0.05,
        )
        assert report.failed == []
        assert report.computed == len(specs)
        assert daemon.metrics.busy > 0, "the test never actually saturated"

    def test_progress_callback_sees_every_outcome(self, daemon_factory):
        daemon = daemon_factory()
        specs = build_matrix(category="motivation")
        seen = []
        report = warm_cache(
            specs, socket_path=daemon.config.socket_path,
            progress=seen.append,
        )
        assert len(seen) == len(specs)
        assert {o["run_id"] for o in seen} == {s.run_id for s in specs}
        assert report.summary_line().startswith(f"warmed {len(specs)} spec")

    def test_unreachable_daemon_reports_errors_not_raises(self, tmp_path):
        specs = build_matrix(category="motivation")
        report = warm_cache(
            specs, socket_path=str(tmp_path / "nobody.sock"), jobs=2
        )
        assert len(report.failed) == len(specs)
        assert all("cannot connect" in o["message"] for o in report.failed)

    def test_report_as_dict_shape(self, daemon_factory):
        daemon = daemon_factory()
        specs = build_matrix(category="motivation")[:2]
        report = warm_cache(specs, socket_path=daemon.config.socket_path)
        data = report.as_dict()
        assert data["specs"] == 2
        assert data["computed"] == 2
        assert data["failed"] == 0
        assert len(data["outcomes"]) == 2
