"""Tests for L2 tiling, intra-tile optimization, and fusion policies."""

import pytest

from repro.core import (
    PlutoScheduler,
    SchedulerOptions,
    l2_tile_schedule,
    mark_parallelism,
    optimize_intra_tile,
    tile_schedule,
)
from repro.deps import DependenceGraph, compute_dependences
from repro.frontend import parse_program
from repro.runtime import validate_transformation

STENCIL = """
for (t = 0; t < T; t++)
    for (i = 1; i < N-1; i++)
        A[t+1][i] = 0.3 * (A[t][i-1] + A[t][i] + A[t][i+1]);
"""

MATMUL = """
for (i = 0; i < N; i++)
    for (j = 0; j < N; j++)
        for (k = 0; k < N; k++)
            C[i][j] = C[i][j] + A[i][k] * B[k][j];
"""


def tiled(src, params, param_min=3, ts=4, algo="plutoplus"):
    p = parse_program(src, "p", params=params, param_min=param_min)
    ddg = DependenceGraph(p, compute_dependences(p))
    s = PlutoScheduler(p, ddg, SchedulerOptions(algorithm=algo)).schedule()
    mark_parallelism(s, ddg)
    return p, ddg, tile_schedule(s, tile_size=ts)


class TestL2Tiling:
    def test_structure(self):
        p, _, ts = tiled(STENCIL, ("T", "N"), 4)
        l2 = l2_tile_schedule(ts, ratio=4)
        kinds = [(r.kind, r.tile_size, r.parallel) for r in l2.rows]
        # the stencil's band runs as a wavefront: it moves out to the L2
        # tiles, and the L1 tiles of one L2 tile run in order
        assert kinds[:5] == [
            ("wavefront", None, False), ("tile", 16, True), ("tile", 16, False),
            ("tile", 4, False), ("tile", 4, False),
        ]

    def test_parallel_marks_carry_over(self):
        p, _, ts = tiled(MATMUL, ("N",), 3)
        l2 = l2_tile_schedule(ts, ratio=2)
        marks = [(r.tile_size, r.parallel) for r in l2.rows if r.kind == "tile"]
        assert marks == [(8, True), (8, True), (8, False), (4, True), (4, True), (4, False)]

    def test_validates(self):
        p, _, ts = tiled(STENCIL, ("T", "N"), 4, ts=2)
        l2 = l2_tile_schedule(ts, ratio=2)
        assert validate_transformation(p, l2, {"T": 6, "N": 12}).ok

    def test_matmul_l2_validates(self):
        p, _, ts = tiled(MATMUL, ("N",), 3, ts=2)
        l2 = l2_tile_schedule(ts, ratio=2)
        assert validate_transformation(p, l2, {"N": 6}).ok

    def test_bad_ratio_rejected(self):
        p, _, ts = tiled(STENCIL, ("T", "N"), 4)
        with pytest.raises(ValueError):
            l2_tile_schedule(ts, ratio=1)

    def test_untouched_without_tile_bands(self):
        from repro.core import untiled_schedule

        p = parse_program(STENCIL, "p", params=("T", "N"), param_min=4)
        ddg = DependenceGraph(p, compute_dependences(p))
        s = PlutoScheduler(p, ddg, SchedulerOptions()).schedule()
        ts = untiled_schedule(s)
        l2 = l2_tile_schedule(ts, ratio=4)
        assert [r.kind for r in l2.rows] == [r.kind for r in ts.rows]


class TestIntraTile:
    def test_moves_parallel_innermost(self):
        p, _, ts = tiled(MATMUL, ("N",), 3)
        # matmul point band: some level is parallel (i or j), k carries C
        opt = optimize_intra_tile(ts)
        point_band = [b for b in opt.bands if opt.rows[b.start].kind == "loop"]
        if point_band:
            inner = opt.rows[point_band[0].end]
            # if the band had any parallel level it is now innermost
            had_parallel = any(
                ts.rows[l].parallel for b in ts.bands for l in b.levels()
                if ts.rows[l].kind == "loop"
            )
            if had_parallel:
                assert inner.parallel

    def test_validates_after_rotation(self):
        p, _, ts = tiled(MATMUL, ("N",), 3, ts=2)
        opt = optimize_intra_tile(ts)
        assert validate_transformation(p, opt, {"N": 6}).ok

    def test_noop_when_already_inner_parallel(self):
        p, _, ts = tiled(STENCIL, ("T", "N"), 4)
        once = optimize_intra_tile(ts)
        twice = optimize_intra_tile(once)
        assert [id(r.exprs) for r in once.rows] != None  # smoke
        assert [r.kind for r in once.rows] == [r.kind for r in twice.rows]


class TestFusionPolicies:
    SRC = """
    for (i = 0; i < N; i++)
        B[i] = 2.0 * A[i];
    for (i = 0; i < N; i++)
        C[i] = 3.0 * B[i];
    """

    def _schedule(self, fuse):
        p = parse_program(self.SRC, "p", params=("N",))
        ddg = DependenceGraph(p, compute_dependences(p))
        s = PlutoScheduler(p, ddg, SchedulerOptions(fuse=fuse)).schedule()
        return p, s

    def test_max_fuses(self):
        p, s = self._schedule("max")
        # both statements share the loop row (non-constant for both)
        first_loop = next(r for r in s.rows if r.kind == "loop")
        assert not first_loop.expr_for("S0").is_constant()
        assert not first_loop.expr_for("S1").is_constant()

    def test_no_distributes(self):
        p, s = self._schedule("no")
        assert s.rows[0].kind == "scalar"
        assert s.rows[0].expr_for("S0").const_term != s.rows[0].expr_for("S1").const_term

    def test_smart_cuts_dimension_mismatch(self):
        src = """
        for (i = 0; i < N; i++)
            x[i] = A[i][0];
        for (i = 0; i < N; i++)
            for (j = 0; j < N; j++)
                A[i][j] = A[i][j] + x[i];
        """
        p = parse_program(src, "p", params=("N",))
        ddg = DependenceGraph(p, compute_dependences(p))
        s = PlutoScheduler(p, ddg, SchedulerOptions(fuse="smart")).schedule()
        assert s.rows[0].kind == "scalar"  # 1-d and 2-d SCCs separated upfront

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            SchedulerOptions(fuse="aggressive")

    @pytest.mark.parametrize("fuse", ["smart", "max", "no"])
    def test_all_policies_valid(self, fuse):
        from repro.core import untiled_schedule

        p = parse_program(self.SRC, "p", params=("N",))
        ddg = DependenceGraph(p, compute_dependences(p))
        s = PlutoScheduler(p, ddg, SchedulerOptions(fuse=fuse)).schedule()
        assert validate_transformation(p, untiled_schedule(s), {"N": 8}).ok
