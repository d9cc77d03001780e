"""Tests for the cache simulator and the tiling-cuts-misses mechanism."""

import pytest

from repro.core import (
    PlutoScheduler,
    SchedulerOptions,
    mark_parallelism,
    tile_schedule,
    untiled_schedule,
)
from repro.deps import DependenceGraph, compute_dependences
from repro.frontend import parse_program
from tests.machine.cache import CacheConfig, CacheSim, simulate_schedule_misses


class TestCacheSim:
    def test_cold_miss_then_hit(self):
        sim = CacheSim(CacheConfig())
        assert not sim.access(0)
        assert sim.access(8)     # same 64B line
        assert sim.hits == 1 and sim.misses == 1

    def test_line_granularity(self):
        sim = CacheSim(CacheConfig(line_bytes=64))
        sim.access(0)
        assert sim.access(63)
        assert not sim.access(64)

    def test_lru_eviction(self):
        # direct-ish tiny cache: 2 sets x 1 way x 64B lines = 128B
        cfg = CacheConfig(size_bytes=128, line_bytes=64, associativity=1)
        sim = CacheSim(cfg)
        sim.access(0)        # set 0
        sim.access(128)      # set 0, evicts line 0
        assert not sim.access(0)  # miss again

    def test_associativity_retains(self):
        cfg = CacheConfig(size_bytes=256, line_bytes=64, associativity=2)
        sim = CacheSim(cfg)
        sim.access(0)
        sim.access(128)      # same set, second way
        assert sim.access(0)  # still resident

    def test_miss_ratio(self):
        sim = CacheSim(CacheConfig())
        assert sim.miss_ratio() == 0.0
        sim.access(0)
        sim.access(0)
        assert sim.miss_ratio() == pytest.approx(0.5)


class TestTilingReducesMisses:
    def test_time_tiled_stencil_has_fewer_misses(self):
        """The Fig. 6 mechanism, observed on real generated code: with a
        cache smaller than the grid, the time-tiled schedule re-uses each
        tile across time steps and misses far less than the sweep order."""
        src = """
        for (t = 0; t < T; t++)
            for (i = 1; i < N-1; i++)
                A[t+1][i] = 0.3 * (A[t][i-1] + A[t][i] + A[t][i+1]);
        """
        p = parse_program(src, "stencil", params=("T", "N"), param_min=4)
        ddg = DependenceGraph(p, compute_dependences(p))
        s = PlutoScheduler(p, ddg, SchedulerOptions()).schedule()
        mark_parallelism(s, ddg)
        params = {"T": 16, "N": 512}
        # the cache holds half a grid row: the untiled sweep gets no reuse
        # across time steps, the 8-step tiles do
        cfg = CacheConfig(size_bytes=2048, line_bytes=64, associativity=8)
        untiled = simulate_schedule_misses(p, untiled_schedule(s), params, cfg)
        tiled = simulate_schedule_misses(p, tile_schedule(s, tile_size=8), params, cfg)
        assert untiled.accesses == tiled.accesses  # same work
        assert tiled.misses < 0.7 * untiled.misses

    def test_large_cache_equalizes(self):
        """With everything cache-resident the orders miss equally (cold only)."""
        src = """
        for (t = 0; t < T; t++)
            for (i = 1; i < N-1; i++)
                A[t+1][i] = 0.3 * (A[t][i-1] + A[t][i] + A[t][i+1]);
        """
        p = parse_program(src, "stencil", params=("T", "N"), param_min=4)
        ddg = DependenceGraph(p, compute_dependences(p))
        s = PlutoScheduler(p, ddg, SchedulerOptions()).schedule()
        mark_parallelism(s, ddg)
        params = {"T": 6, "N": 24}
        big = CacheConfig(size_bytes=1 << 20)
        untiled = simulate_schedule_misses(p, untiled_schedule(s), params, big)
        tiled = simulate_schedule_misses(p, tile_schedule(s, tile_size=4), params, big)
        assert untiled.misses == tiled.misses  # compulsory misses only
