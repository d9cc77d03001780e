"""Tests for band tiling and schedule containers."""

import pytest

from repro.core import (
    Band,
    PlutoScheduler,
    Schedule,
    SchedulerOptions,
    mark_parallelism,
    tile_schedule,
    untiled_schedule,
)
from repro.deps import DependenceGraph, compute_dependences
from repro.frontend import parse_program

JACOBI = """
for (t = 0; t < T; t++) {
    for (i = 1; i < N - 1; i++)
        B[i] = 0.33 * (A[i-1] + A[i] + A[i+1]);
    for (i = 1; i < N - 1; i++)
        A[i] = B[i];
}
"""


@pytest.fixture(scope="module")
def jacobi_schedule():
    p = parse_program(JACOBI, "jacobi", params=("T", "N"), param_min=4)
    ddg = DependenceGraph(p, compute_dependences(p))
    s = PlutoScheduler(p, ddg, SchedulerOptions(algorithm="plutoplus")).schedule()
    mark_parallelism(s, ddg)
    return p, s


class TestTileSchedule:
    def test_band_tiled_once(self, jacobi_schedule):
        p, s = jacobi_schedule
        ts = tile_schedule(s, tile_size=16)
        kinds = [r.kind for r in ts.rows]
        # 2-wide band -> a wavefront over 2 tile rows + 2 point rows, then
        # the beta scalar (the first hyperplane carries the time loop)
        assert kinds == ["wavefront", "tile", "tile", "loop", "loop", "scalar"]

    def test_tile_sizes_recorded(self, jacobi_schedule):
        _, s = jacobi_schedule
        ts = tile_schedule(s, tile_size=16)
        assert all(r.tile_size == 16 for r in ts.rows if r.kind == "tile")

    def test_narrow_band_not_tiled(self, jacobi_schedule):
        _, s = jacobi_schedule
        ts = tile_schedule(s, min_band_width=3)
        assert ts.tile_levels() == []

    def test_per_band_tile_sizes(self, jacobi_schedule):
        _, s = jacobi_schedule
        ts = tile_schedule(s, tile_size={0: 8})
        assert {r.tile_size for r in ts.rows if r.kind == "tile"} == {8}

    def test_untiled_mirror(self, jacobi_schedule):
        _, s = jacobi_schedule
        ts = untiled_schedule(s)
        assert ts.depth == s.depth
        assert [r.kind for r in ts.rows] == [r.kind for r in s.rows]

    def test_bands_cover_tile_and_point(self, jacobi_schedule):
        _, s = jacobi_schedule
        ts = tile_schedule(s, tile_size=4)
        tile_band = ts.bands[0]
        point_band = ts.bands[1]
        assert [ts.rows[l].kind for l in tile_band.levels()] == ["wavefront", "tile", "tile"]
        assert point_band.width == 2
        assert tile_band.end + 1 == point_band.start

    def test_concurrent_start_tiles_run_as_a_wavefront(self):
        """Diamond hyperplanes are dependence-non-negative pointwise but can
        still be carried at tile granularity — annotating the first tile
        loop parallel raced under real OpenMP threads — so neither tile row
        is parallel on its own; the tiles of one wavefront ``w = z1 + z2``
        are, and the band flag still records concurrent start."""
        from repro.core import find_diamond_schedule, index_set_split
        from repro.workloads.periodic import heat_1dp

        p, _ = index_set_split(heat_1dp())
        ddg = DependenceGraph(p, compute_dependences(p))
        s = find_diamond_schedule(p, ddg, SchedulerOptions(algorithm="plutoplus"))
        mark_parallelism(s, ddg)
        ts = tile_schedule(s, tile_size=8)
        assert [(r.kind, r.parallel) for r in ts.rows[:3]] == [
            ("wavefront", False), ("tile", True), ("tile", False),
        ]
        assert any(b.concurrent_start for b in ts.bands)


def _tiled(src, params=("N",), **options):
    p = parse_program(src, "p", params=params, param_min=4)
    ddg = DependenceGraph(p, compute_dependences(p))
    s = PlutoScheduler(p, ddg, SchedulerOptions(**options)).schedule()
    mark_parallelism(s, ddg)
    return s, tile_schedule(s, tile_size=4)


def _cell(cell_id):
    """A golden corpus cell's pipeline, at tile size 4."""
    import dataclasses

    from repro.pipeline import optimize
    from tests.golden import cell_specs

    workload, options = cell_specs()[cell_id]
    return optimize(workload, dataclasses.replace(options, tile_size=4))


class TestParallelTileRows:
    """Tile row ``k`` is parallel iff the band's hyperplanes up to ``k`` are;
    a band whose first tile row is not runs as a wavefront."""

    def test_fully_parallel_band(self):
        s, ts = _tiled(
            "for (i = 0; i < N; i++) for (j = 0; j < N; j++) B[i][j] = A[i][j];"
        )
        assert [r.parallel for r in s.rows] == [True, True]
        assert [(r.kind, r.parallel) for r in ts.rows[:2]] == [("tile", True)] * 2

    def test_a_row_own_flag_is_not_enough(self):
        # distance (1, 1) under the band (i, j): row i carries it, so row j
        # is parallel pointwise, but a pair inside one i tile crosses j tile
        # boundaries
        from repro.core import ScheduleRow
        from repro.polyhedra import AffExpr

        p = parse_program(
            "for (i = 1; i < N; i++) for (j = 1; j < N; j++) A[i][j] = A[i-1][j-1];",
            "p", params=("N",), param_min=4,
        )
        stmt = p.statements[0]
        s = Schedule(p)
        for it in ("i", "j"):
            s.add_row(ScheduleRow("loop", {stmt.name: AffExpr.from_terms(stmt.space, {it: 1})}))
        s.bands.append(Band(0, 1))
        mark_parallelism(s, DependenceGraph(p, compute_dependences(p)))
        ts = tile_schedule(s, tile_size=4)
        assert [r.parallel for r in s.rows] == [False, True]
        assert [(r.kind, r.parallel) for r in ts.rows[:3]] == [
            ("wavefront", False), ("tile", True), ("tile", False),
        ]

    def test_inner_parallel_rows_follow_the_first(self):
        # gemm: i and j parallel, k sequential
        s, ts = _tiled(
            "for (i = 0; i < N; i++) for (j = 0; j < N; j++) for (k = 0; k < N; k++)"
            " C[i][j] = C[i][j] + A[i][k] * B[k][j];"
        )
        assert [r.parallel for r in s.rows] == [True, True, False]
        assert [(r.kind, r.parallel) for r in ts.rows[:3]] == [
            ("tile", True), ("tile", True), ("tile", False),
        ]

    def test_reduction_rows_stay_sequential_tiles(self):
        result = _cell("gemm--redpar")
        tagged = [l for l, r in enumerate(result.schedule.rows) if r.reduction]
        assert tagged
        band = next(b for b in result.schedule.bands if b.start <= tagged[0] <= b.end)
        marks = [result.tiled.rows[l].parallel for l in result.tiled.tile_levels()]
        assert marks == [
            l < tagged[0] and bool(result.schedule.rows[l].parallel)
            for l in band.levels()
        ]

    def test_no_wavefront_where_a_pair_runs_backwards(self):
        # the quick path's fdtd-2d band orders S2 -> S3 pairs lexicographically
        # only: i on one row, -i on the next — one wavefront would hold both
        quick, exact = _cell("fdtd-2d--quick"), _cell("fdtd-2d--plutoplus")
        assert not [r for r in quick.tiled.rows if r.kind == "wavefront"]
        assert [r for r in exact.tiled.rows if r.kind == "wavefront"]


class TestScheduleContainer:
    def test_h_rows_skips_zero_rows(self, jacobi_schedule):
        p, s = jacobi_schedule
        for st_ in p.statements:
            rows = s.h_rows(st_)
            assert all(any(r) for r in rows)

    def test_map_for_depth(self, jacobi_schedule):
        p, s = jacobi_schedule
        m = s.map_for(p.statements[0])
        assert m.n_out == s.depth

    def test_band_at(self, jacobi_schedule):
        _, s = jacobi_schedule
        b = s.band_at(0)
        assert isinstance(b, Band) and b.start == 0

    def test_pretty_mentions_bands(self, jacobi_schedule):
        _, s = jacobi_schedule
        assert "band[" in s.pretty()
