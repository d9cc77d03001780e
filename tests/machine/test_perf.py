"""Tests for the machine model and the Fig. 6 performance estimator."""

import pytest

from repro.machine import (
    ExecutionMode,
    XEON_E5_2680,
    classify_result,
    estimate,
    speedup,
)
from repro.workloads import get_workload


class TestMachineModel:
    def test_table1_constants(self):
        m = XEON_E5_2680
        assert m.total_cores == 16
        assert m.peak_gflops == pytest.approx(172.8)
        assert m.core_peak_gflops() == pytest.approx(10.8)

    def test_bandwidth_saturates(self):
        m = XEON_E5_2680
        assert m.bandwidth_gbs(1) < m.bandwidth_gbs(4) <= m.bandwidth_gbs(16)
        assert m.bandwidth_gbs(16) == pytest.approx(2 * m.socket_bw_gbs)

    def test_scatter_uses_both_sockets_early(self):
        m = XEON_E5_2680
        assert m.bandwidth_gbs(2, scatter=True) == pytest.approx(
            2 * m.single_core_bw_gbs
        )
        assert m.bandwidth_gbs(2, scatter=False) == pytest.approx(
            2 * m.single_core_bw_gbs
        )
        # at 8 cores, scatter spreads 4+4; compact packs 8 on one socket
        assert m.bandwidth_gbs(8, scatter=True) >= m.bandwidth_gbs(8, scatter=False)

    def test_compute_scales_linearly(self):
        m = XEON_E5_2680
        assert m.compute_gflops(8) == pytest.approx(8 * 10.8)

    def test_zero_cores(self):
        assert XEON_E5_2680.bandwidth_gbs(0) == 0.0


class TestEstimates:
    def test_untiled_heat2dp_is_memory_bound(self):
        w = get_workload("heat-2dp")
        e = estimate(w, ExecutionMode.SPACE_PARALLEL, 16)
        assert e.bound == "memory"

    def test_diamond_heat2dp_is_compute_bound(self):
        w = get_workload("heat-2dp")
        e = estimate(w, ExecutionMode.DIAMOND, 16)
        assert e.bound == "compute"

    def test_paper_speedups_reproduced(self):
        """Headline 16-core factors from Section 4.2 (within ~25%).

        swim time-tiles as a pipelined wavefront band (its Pluto+ schedule
        has no concurrent start); the stencils diamond-tile.
        """
        targets = {
            "heat-1dp": (2.72, ExecutionMode.DIAMOND),
            "heat-2dp": (6.73, ExecutionMode.DIAMOND),
            "heat-3dp": (1.4, ExecutionMode.DIAMOND),
            "swim": (2.73, ExecutionMode.WAVEFRONT),
        }
        for name, (target, mode) in targets.items():
            w = get_workload(name)
            base = estimate(w, ExecutionMode.SPACE_PARALLEL, 16)
            tiled = estimate(w, mode, 16)
            factor = speedup(base, tiled)
            assert factor == pytest.approx(target, rel=0.25), name

    def test_lbm_mean_speedup_near_paper(self):
        import math

        names = ["lbm-ldc-d2q9", "lbm-ldc-d2q9-mrt", "lbm-fpc-d2q9", "lbm-poi-d2q9"]
        factors = []
        for name in names:
            w = get_workload(name)
            factors.append(
                speedup(
                    estimate(w, ExecutionMode.SPACE_PARALLEL, 16),
                    estimate(w, ExecutionMode.DIAMOND, 16),
                )
            )
        mean = math.prod(factors) ** (1 / len(factors))
        assert mean == pytest.approx(1.33, rel=0.15)

    def test_untiled_baseline_stops_scaling(self):
        """Bandwidth saturation: untiled heat-2dp gains little past 6 cores."""
        w = get_workload("heat-2dp")
        t6 = estimate(w, ExecutionMode.SPACE_PARALLEL, 6).seconds
        t16 = estimate(w, ExecutionMode.SPACE_PARALLEL, 16).seconds
        assert t6 / t16 < 1.6

    def test_diamond_keeps_scaling(self):
        w = get_workload("heat-2dp")
        t4 = estimate(w, ExecutionMode.DIAMOND, 4).seconds
        t16 = estimate(w, ExecutionMode.DIAMOND, 16).seconds
        assert t4 / t16 > 2.5

    def test_d3q27_numa_drop(self):
        """Fig. 6f: the untiled 3-d LBM baseline *drops* past one socket."""
        w = get_workload("lbm-ldc-d3q27")
        m10 = estimate(w, ExecutionMode.SPACE_PARALLEL, 10).mlups
        m16 = estimate(w, ExecutionMode.SPACE_PARALLEL, 16).mlups
        assert m16 < m10 * 1.05

    def test_wavefront_slower_than_diamond(self):
        w = get_workload("heat-2dp")
        wf = estimate(w, ExecutionMode.WAVEFRONT, 16)
        dm = estimate(w, ExecutionMode.DIAMOND, 16)
        assert wf.seconds >= dm.seconds

    def test_sequential_uses_one_core(self):
        w = get_workload("heat-2dp")
        seq = estimate(w, ExecutionMode.SEQUENTIAL, 16)
        par1 = estimate(w, ExecutionMode.SPACE_PARALLEL, 1)
        assert seq.seconds == pytest.approx(par1.seconds)

    def test_mlups_consistent(self):
        w = get_workload("lbm-ldc-d2q9")
        e = estimate(w, ExecutionMode.SPACE_PARALLEL, 16)
        pts = 1024 * 1024 * 50000
        assert e.mlups == pytest.approx(pts / e.seconds / 1e6)

    def test_tile_size_changes_the_estimate(self):
        # the tile size sets the reuse model, hence the prediction
        w = get_workload("heat-1dp")
        sizes = {"N": 512, "T": 64}
        a = estimate(w, ExecutionMode.DIAMOND, 1, sizes=sizes, tile_size=32)
        b = estimate(w, ExecutionMode.DIAMOND, 1, sizes=sizes, tile_size=8)
        assert a.seconds != b.seconds

    def test_unknown_mode_rejected(self):
        w = get_workload("heat-1dp")
        with pytest.raises(ValueError):
            estimate(w, "gpu", 16)

    def test_no_perfspec_rejected(self):
        w = get_workload("gemm")
        with pytest.raises(ValueError):
            estimate(w, ExecutionMode.SPACE_PARALLEL, 16)


class TestClassify:
    def test_classify_diamond(self):
        from repro.pipeline import optimize
        from repro.workloads import get_workload

        w = get_workload("heat-1dp")
        res = optimize(w.program(), w.pipeline_options("plutoplus"))
        assert classify_result(res) == ExecutionMode.DIAMOND

    def test_classify_space_parallel_for_pluto_periodic(self):
        from repro.pipeline import optimize

        w = get_workload("heat-1dp")
        res = optimize(w.program(), w.pipeline_options("pluto"))
        mode = classify_result(res)
        assert mode in (ExecutionMode.SPACE_PARALLEL, ExecutionMode.WAVEFRONT)

