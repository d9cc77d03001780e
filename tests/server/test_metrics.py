"""Tests for serving metrics: counters, hit rate, latency percentiles."""

import pytest

from repro.server.metrics import LatencyWindow, ServerMetrics


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
            m.count_outcome(tag)
        assert m.ok == 5
        assert (m.hits_memory, m.hits_disk, m.coalesced, m.misses) == (1, 1, 1, 2)

    def test_hit_rate_counts_coalesced_as_hit(self):
        m = ServerMetrics()
        m.count_outcome("coalesced")
        m.count_outcome("miss")
        assert m.hit_rate == pytest.approx(0.5)

    def test_hit_rate_empty_is_zero(self):
        assert ServerMetrics().hit_rate == 0.0

    def test_error_and_busy_counters(self):
        m = ServerMetrics()
        m.count_busy()
        m.count_error("crash")
        m.count_error("crash")
        m.count_error("timeout")
        assert m.busy == 1
        assert m.errors == {"crash": 2, "timeout": 1}

    def test_request_counters(self):
        m = ServerMetrics()
        m.count_request("ping")
        m.count_request("optimize")
        m.count_request("optimize")
        assert m.requests == 3
        assert m.optimize_requests == 2

    def test_snapshot_splices_gauges(self):
        m = ServerMetrics()
        m.count_request("optimize")
        m.count_outcome("miss")
        m.observe("total", 0.25)
        m.observe("compute", 0.2)
        snap = m.snapshot(in_flight=3, queue_depth=1)
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
        m.count_request("optimize")
        m.count_outcome("hit-memory")
        m.count_request("optimize")
        m.count_outcome("miss")
        m.observe("total", 0.5)
        line = m.summary_line()
        assert "served 2 optimize request(s)" in line
        assert "hit rate 0.50" in line
        assert "p50 total 0.500s" in line

    def test_summary_line_before_any_request(self):
        assert "p50 total n/a" in ServerMetrics().summary_line()

    def test_scheduler_path_counters(self):
        m = ServerMetrics()
        m.count_scheduler("quick")
        m.count_scheduler("quick")
        m.count_scheduler("fallback", "untilable-band")
        m.count_scheduler("fallback", "diamond-requested")
        m.count_scheduler("exact")
        assert m.scheduler_paths == {"quick": 2, "fallback": 2, "exact": 1}
        assert m.fallback_reasons == {
            "untilable-band": 1, "diamond-requested": 1,
        }

    def test_scheduler_none_path_ignored(self):
        # pre-quick result payloads carry no scheduler_path
        m = ServerMetrics()
        m.count_scheduler(None)
        m.count_scheduler(None, "untilable-band")
        assert m.scheduler_paths == {}
        assert m.fallback_reasons == {}

    def test_scheduler_counters_in_snapshot_and_summary(self):
        m = ServerMetrics()
        m.count_scheduler("quick")
        m.count_scheduler("fallback", "no-legal-permutation")
        snap = m.snapshot()
        assert snap["scheduler_paths"] == {"quick": 1, "fallback": 1}
        assert snap["fallback_reasons"] == {"no-legal-permutation": 1}
        line = m.summary_line()
        assert '"quick": 1' in line
        assert "no-legal-permutation" in line

    def test_structural_counters(self):
        m = ServerMetrics()
        m.count_structural("hit")
        m.count_structural("hit")
        m.count_structural("miss")
        m.count_structural("fallback")
        m.count_structural(None)  # store disabled: not counted at all
        assert (m.structural_hits, m.structural_misses,
                m.structural_fallbacks) == (2, 1, 1)
        snap = m.snapshot()
        assert snap["structural_hits"] == 2
        assert snap["structural_misses"] == 1
        assert snap["structural_fallbacks"] == 1
        assert "structural 2/1/1 (hit/miss/fb)" in m.summary_line()

    def test_pool_counters(self):
        m = ServerMetrics()
        m.count_pool_spawn()
        m.count_pool_spawn()
        m.count_pool_dispatch(reused=False)
        m.count_pool_dispatch(reused=True)
        m.count_pool_dispatch(reused=True)
        m.count_pool_recycle()
        assert m.pool_spawns == 2
        assert m.pool_dispatches == 3
        assert m.pool_reuses == 2
        assert m.pool_recycles == 1
        snap = m.snapshot()
        assert snap["pool"] == {
            "spawns": 2, "dispatches": 3, "reuses": 2, "recycles": 1,
        }

    def test_pool_counters_default_zero(self):
        # a fresh daemon has forked nothing yet; the snapshot still
        # carries the block so dashboards need no special-casing
        snap = ServerMetrics().snapshot()
        assert snap["pool"] == {
            "spawns": 0, "dispatches": 0, "reuses": 0, "recycles": 0,
        }

    def test_shard_route_counters(self):
        m = ServerMetrics()
        m.count_shard_route("/tmp/s0.sock")
        m.count_shard_route("/tmp/s1.sock")
        m.count_shard_route("/tmp/s0.sock")
        assert m.shard_routes == {"/tmp/s0.sock": 2, "/tmp/s1.sock": 1}
        assert m.snapshot()["shard_routes"] == {
            "/tmp/s0.sock": 2, "/tmp/s1.sock": 1,
        }


class TestReductionParallelCounter:
    def test_counter_and_snapshot(self):
        m = ServerMetrics()
        assert m.snapshot(in_flight=0, queue_depth=0)["reduction_parallel"] == 0
        m.count_reduction_parallel()
        m.count_reduction_parallel()
        assert m.reduction_parallel == 2
        snap = m.snapshot(in_flight=0, queue_depth=0)
        assert snap["reduction_parallel"] == 2

    def test_summary_line_mentions_it(self):
        m = ServerMetrics()
        m.count_reduction_parallel()
        assert "1 reduction-parallel" in m.summary_line()
