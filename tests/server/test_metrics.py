"""Tests for serving metrics: counters, hit rate, latency percentiles."""

import json
import sys
import threading

import pytest

from repro.server.metrics import (
    OUTCOME_COUNTERS, STRUCTURAL_COUNTERS, LatencyWindow, ServerMetrics,
)


class TestLatencyWindow:
    def test_empty_percentiles_are_none(self):
        window = LatencyWindow()
        assert window.percentile(0.5) is None
        assert window.as_dict() == {
            "count": 0, "p50": None, "p90": None, "p99": None, "max": None,
        }

    def test_percentiles_from_samples(self):
        window = LatencyWindow()
        for ms in range(1, 101):
            window.record(ms / 1000.0)
        assert window.percentile(0.5) == pytest.approx(0.051)
        assert window.percentile(0.99) == pytest.approx(0.1)
        d = window.as_dict()
        assert d["count"] == 100
        assert d["max"] == pytest.approx(0.1)

    def test_window_bounds_samples_but_not_count(self):
        window = LatencyWindow(window=4)
        for i in range(10):
            window.record(float(i))
        assert window.count == 10
        assert window.percentile(0.0) == 6.0  # oldest surviving sample


class TestServerMetrics:
    def test_outcome_counters(self):
        m = ServerMetrics()
        for tag in ("hit-memory", "hit-disk", "coalesced", "miss", "miss"):
            m.count(OUTCOME_COUNTERS[tag])
        assert m.ok == 5
        assert (m.hits_memory, m.hits_disk, m.coalesced, m.misses) == (1, 1, 1, 2)

    def test_hit_rate_counts_coalesced_as_hit(self):
        m = ServerMetrics()
        m.count("coalesced")
        m.count("misses")
        assert m.hit_rate == pytest.approx(0.5)

    def test_hit_rate_empty_is_zero(self):
        assert ServerMetrics().hit_rate == 0.0

    def test_error_and_busy_counters(self):
        m = ServerMetrics()
        m.count("busy")
        m.count("errors", key="crash")
        m.count("errors", key="crash")
        m.count("errors", key="timeout")
        assert m.busy == 1
        assert m.errors == {"crash": 2, "timeout": 1}

    def test_request_counters(self):
        m = ServerMetrics()
        m.count("requests")
        m.count("requests", "optimize_requests")
        m.count("requests", "optimize_requests")
        assert m.requests == 3
        assert m.optimize_requests == 2

    def test_snapshot_splices_gauges(self):
        m = ServerMetrics()
        m.count("requests", "optimize_requests")
        m.count("misses")
        m.observe("total", 0.25)
        m.observe("compute", 0.2)
        snap = m.as_dict(in_flight=3, queue_depth=1)
        assert snap["in_flight"] == 3
        assert snap["queue_depth"] == 1
        assert snap["misses"] == 1
        assert snap["latency"]["total"]["count"] == 1
        assert snap["latency"]["total"]["p50"] == pytest.approx(0.25)
        assert snap["latency"]["compute"]["p50"] == pytest.approx(0.2)
        assert snap["latency"]["lookup"]["count"] == 0
        assert snap["uptime_seconds"] >= 0

    def test_summary_line(self):
        m = ServerMetrics()
        m.count("requests", "optimize_requests")
        m.count("hits_memory")
        m.count("requests", "optimize_requests")
        m.count("misses")
        m.observe("total", 0.5)
        line = m.summary_line()
        assert "served 2 optimize request(s)" in line
        assert "hit rate 0.50" in line
        assert "p50 total 0.500s" in line

    def test_summary_line_before_any_request(self):
        assert "p50 total n/a" in ServerMetrics().summary_line()

    def test_scheduler_path_counters(self):
        m = ServerMetrics()
        m.count("scheduler_paths", key="quick")
        m.count("scheduler_paths", key="quick")
        m.count("scheduler_paths", key="fallback")
        m.count("fallback_reasons", key="untilable-band")
        m.count("scheduler_paths", key="fallback")
        m.count("fallback_reasons", key="diamond-requested")
        m.count("scheduler_paths", key="exact")
        assert m.scheduler_paths == {"quick": 2, "fallback": 2, "exact": 1}
        assert m.fallback_reasons == {
            "untilable-band": 1, "diamond-requested": 1,
        }

    def test_scheduler_none_path_ignored(self):
        # pre-quick result payloads carry no scheduler_path
        m = ServerMetrics()
        m.count("scheduler_paths", key=None)
        m.count("fallback_reasons", key=None)
        assert m.scheduler_paths == {}
        assert m.fallback_reasons == {}

    def test_scheduler_counters_in_snapshot_and_summary(self):
        m = ServerMetrics()
        m.count("scheduler_paths", key="quick")
        m.count("scheduler_paths", key="fallback")
        m.count("fallback_reasons", key="no-legal-permutation")
        snap = m.as_dict()
        assert snap["scheduler_paths"] == {"quick": 1, "fallback": 1}
        assert snap["fallback_reasons"] == {"no-legal-permutation": 1}
        line = m.summary_line()
        assert '"quick": 1' in line
        assert "no-legal-permutation" in line

    def test_structural_counters(self):
        m = ServerMetrics()
        for path in ("hit", "hit", "miss", "fallback", None):
            # None: store disabled, not counted at all
            m.count(STRUCTURAL_COUNTERS.get(path))
        assert (m.structural_hits, m.structural_misses,
                m.structural_fallbacks) == (2, 1, 1)
        snap = m.as_dict()
        assert snap["structural_hits"] == 2
        assert snap["structural_misses"] == 1
        assert snap["structural_fallbacks"] == 1
        assert "structural 2/1/1 (hit/miss/fb)" in m.summary_line()

    def test_pool_counters(self):
        m = ServerMetrics()
        m.count("pool.spawns")
        m.count("pool.spawns")
        m.count("pool.dispatches", None)
        m.count("pool.dispatches", "pool.reuses")
        m.count("pool.dispatches", "pool.reuses")
        m.count("pool.recycles")
        assert m.pool.spawns == 2
        assert m.pool.dispatches == 3
        assert m.pool.reuses == 2
        assert m.pool.recycles == 1
        snap = m.as_dict()
        assert snap["pool"] == {
            "spawns": 2, "dispatches": 3, "reuses": 2, "recycles": 1,
        }

    def test_pool_counters_default_zero(self):
        # a fresh daemon has forked nothing yet; the payload still
        # carries the block so dashboards need no special-casing
        snap = ServerMetrics().as_dict()
        assert snap["pool"] == {
            "spawns": 0, "dispatches": 0, "reuses": 0, "recycles": 0,
        }


class TestReductionParallelCounter:
    def test_counter_and_snapshot(self):
        m = ServerMetrics()
        assert m.as_dict(in_flight=0, queue_depth=0)["reduction_parallel"] == 0
        m.count("reduction_parallel")
        m.count("reduction_parallel")
        assert m.reduction_parallel == 2
        snap = m.as_dict(in_flight=0, queue_depth=0)
        assert snap["reduction_parallel"] == 2

    def test_summary_line_mentions_it(self):
        m = ServerMetrics()
        m.count("reduction_parallel")
        assert "1 reduction-parallel" in m.summary_line()


def _pinned_sequence() -> ServerMetrics:
    """A fixed recording that touches every counter and one latency stage."""
    m = ServerMetrics()
    m.count("requests")
    m.count("requests", "optimize_requests")
    m.count(OUTCOME_COUNTERS["hit-memory"])
    m.count(OUTCOME_COUNTERS["miss"])
    m.count("scheduler_paths", key="fallback")
    m.count("fallback_reasons", key="untilable-band")
    m.count(STRUCTURAL_COUNTERS["hit"])
    m.count("reduction_parallel")
    m.count("pool.spawns")
    m.count("pool.dispatches", "pool.reuses")
    m.count("pool.recycles")
    m.count("busy")
    m.count("errors", key="crash")
    m.observe("total", 0.25)
    return m


#: the ``stats`` payload of :func:`_pinned_sequence` (minus ``uptime_seconds``)
#: as the hand-written ``ServerMetrics`` of 1.20.0 produced it, less the
#: ``shard_routes`` key that left with the router in 1.30.0 and the
#: ``backends`` key that left with ``PipelineOptions.backend`` in 1.33.0
_PINNED_PAYLOAD = (
    '{"requests": 2, "optimize_requests": 1, "ok": 2, "hits_memory": 1, '
    '"hits_disk": 0, "coalesced": 0, "misses": 1, "busy": 1, '
    '"errors": {"crash": 1}, "scheduler_paths": {"fallback": 1}, '
    '"fallback_reasons": {"untilable-band": 1}, "structural_hits": 1, '
    '"structural_misses": 0, "structural_fallbacks": 0, '
    '"reduction_parallel": 1, '
    '"pool": {"spawns": 1, "dispatches": 1, "reuses": 1, "recycles": 1}, '
    '"hit_rate": 0.5, '
    '"latency": {"lookup": {"count": 0, "p50": null, "p90": null, '
    '"p99": null, "max": null}, "compute": {"count": 0, "p50": null, '
    '"p90": null, "p99": null, "max": null}, "total": {"count": 1, '
    '"p50": 0.25, "p90": 0.25, "p99": 0.25, "max": 0.25}}, "in_flight": 0}'
)

_PINNED_SUMMARY = (
    "served 1 optimize request(s): 1+0 cache hits (mem+disk), 0 coalesced, "
    "1 computed, 1 busy, scheduler {\"fallback\": 1}, fallbacks "
    "{\"untilable-band\": 1}, structural 1/0/0 (hit/miss/fb), "
    "1 reduction-parallel, errors {\"crash\": 1}, hit rate 0.50, "
    "p50 total 0.250s"
)


class TestPayloadShape:
    def test_payload_matches_the_hand_written_record(self):
        payload = _pinned_sequence().as_dict(in_flight=0)
        assert list(payload)[0] == "uptime_seconds"
        del payload["uptime_seconds"]
        assert json.dumps(payload) == _PINNED_PAYLOAD
        assert _pinned_sequence().summary_line() == _PINNED_SUMMARY

    def test_payload_is_a_copy(self):
        # the daemon JSON-encodes the payload outside the metrics lock
        m = _pinned_sequence()
        payload = m.as_dict()
        m.count("errors", key="crash")
        m.count("errors", key="timeout")
        m.count("scheduler_paths", key="exact")
        m.count("pool.spawns")
        assert payload["errors"] == {"crash": 1}
        assert payload["scheduler_paths"] == {"fallback": 1}
        assert payload["pool"]["spawns"] == 1


def test_concurrent_counts_lose_no_update():
    # the event loop and the pool's dispatcher thread count side by side
    m, threads, rounds = ServerMetrics(), 8, 2000

    def hammer():
        for _ in range(rounds):
            m.count("requests", "optimize_requests")
            m.count("errors", key="crash")
            m.count("pool.dispatches")

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(w.is_alive() for w in workers)
    total = threads * rounds
    assert (m.requests, m.optimize_requests) == (total, total)
    assert m.errors == {"crash": total}
    assert m.pool.dispatches == total
