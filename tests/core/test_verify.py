"""Tests for the independent schedule legality verifier."""

import dataclasses

import pytest

from repro.core import (
    PlutoScheduler,
    Schedule,
    ScheduleRow,
    SchedulerOptions,
    verify_schedule,
)
from repro.deps import DependenceGraph, compute_dependences
from repro.frontend import parse_program
from repro.polyhedra import AffExpr


def setup(src, params=("N",), param_min=3):
    p = parse_program(src, "p", params=params, param_min=param_min)
    ddg = DependenceGraph(p, compute_dependences(p))
    return p, ddg


FIG1 = """
for (i = 0; i < N; i++)
    for (j = 0; j < N; j++)
        A[i+1][j+1] = 2.0 * A[i][j];
"""


def hand_schedule(p, rows):
    s = Schedule(p)
    stmt = p.statements[0]
    for terms in rows:
        s.add_row(
            ScheduleRow(
                "loop",
                {stmt.name: AffExpr.from_terms(stmt.space, terms)},
            )
        )
    return s


class TestVerifier:
    def test_identity_is_legal(self):
        p, ddg = setup(FIG1)
        s = hand_schedule(p, [{"i": 1}, {"j": 1}])
        assert verify_schedule(s, ddg).legal

    def test_full_reversal_is_illegal(self):
        p, ddg = setup(FIG1)
        s = hand_schedule(p, [{"i": -1}, {"j": -1}])
        report = verify_schedule(s, ddg)
        assert not report.legal
        assert report.violations

    def test_skew_is_legal(self):
        p, ddg = setup(FIG1)
        s = hand_schedule(p, [{"i": 1, "j": -1}, {"j": 1}])
        assert verify_schedule(s, ddg).legal

    def test_rank_deficient_schedule_unordered(self):
        # only one dimension: the (1,1) dep is ordered, but a same-hyperplane
        # pair stays unordered? phi = i orders all pairs of this dep (i-dist 1)
        p, ddg = setup(FIG1)
        s = hand_schedule(p, [{"i": 1}])
        assert verify_schedule(s, ddg).legal  # i-distance is exactly 1

    def test_weak_only_schedule_flagged(self):
        # phi = i - j has distance 0 for every pair: never strictly ordered
        p, ddg = setup(FIG1)
        s = hand_schedule(p, [{"i": 1, "j": -1}])
        report = verify_schedule(s, ddg)
        assert not report.legal
        assert report.unordered and not report.violations
        weak = verify_schedule(s, ddg, require_total_order=False)
        assert weak.legal

    def test_scalar_row_orders_statements(self):
        src = """
        for (i = 0; i < N; i++) {
            B[i] = 2.0 * A[i];
            C[i] = 3.0 * B[i];
        }
        """
        p, ddg = setup(src)
        s = Schedule(p)
        s.add_row(
            ScheduleRow(
                "loop",
                {st.name: AffExpr.var(st.space, "i") for st in p.statements},
            )
        )
        s.add_scalar_row({"S0": 0, "S1": 1})
        assert verify_schedule(s, ddg).legal
        # reversed statement order: backwards
        s2 = Schedule(p)
        s2.add_row(
            ScheduleRow(
                "loop",
                {st.name: AffExpr.var(st.space, "i") for st in p.statements},
            )
        )
        s2.add_scalar_row({"S0": 1, "S1": 0})
        assert not verify_schedule(s2, ddg).legal

    def test_scheduler_output_always_verifies(self):
        for algo in ("pluto", "plutoplus"):
            for src, params, pmin in (
                (FIG1, ("N",), 3),
                (
                    """
                    for (t = 0; t < T; t++)
                        for (i = 1; i < N-1; i++)
                            A[t+1][i] = 0.3*(A[t][i-1]+A[t][i]+A[t][i+1]);
                    """,
                    ("T", "N"),
                    4,
                ),
            ):
                p, ddg = setup(src, params, pmin)
                s = PlutoScheduler(p, ddg, SchedulerOptions(algorithm=algo)).schedule()
                assert verify_schedule(s, ddg).legal, (algo, src[:40])

    def test_diamond_verifies(self):
        from repro.core import find_diamond_schedule, index_set_split
        from repro.workloads.periodic import heat_1dp

        p, _ = index_set_split(heat_1dp())
        ddg = DependenceGraph(p, compute_dependences(p))
        s = find_diamond_schedule(p, ddg, SchedulerOptions(algorithm="plutoplus"))
        assert verify_schedule(s, ddg).legal

    def test_tiled_schedule_accepted(self):
        from repro.core import mark_parallelism, tile_schedule

        p, ddg = setup(FIG1)
        s = PlutoScheduler(p, ddg, SchedulerOptions()).schedule()
        mark_parallelism(s, ddg)
        ts = tile_schedule(s, tile_size=4)
        assert verify_schedule(ts, ddg).legal


class TestTileRows:
    """A tile row no loop row repeats is checked itself: point rows in source
    order say nothing about the hyperplanes the tiles were cut along."""

    @staticmethod
    def tiled(p, tile_rows):
        from repro.core.tiling import TiledRow, TiledSchedule, original_schedule

        stmt = p.statements[0]
        out = TiledSchedule(p)
        for terms in tile_rows:
            expr = AffExpr.from_terms(stmt.space, terms)
            out.rows.append(TiledRow("tile", {stmt.name: expr}, tile_size=4))
        out.rows += original_schedule(p).rows
        return out

    def test_source_order_inside_legal_tiles(self):
        p, ddg = setup(FIG1)  # distance (1, 1): i + j and i are both forward
        assert verify_schedule(self.tiled(p, [{"i": 1, "j": 1}, {"i": 1}]), ddg).legal

    def test_backward_tile_row_is_rejected(self):
        from repro.core.tiling import TiledSchedule

        p, ddg = setup(FIG1)  # i - 2j runs backwards across (1, 1)
        ts = self.tiled(p, [{"i": 1}, {"i": 1, "j": -2}])
        assert verify_schedule(TiledSchedule(p, ts.rows[2:]), ddg).legal
        report = verify_schedule(ts, ddg)
        assert not report.legal
        assert [v.level for v in report.violations] == [1]
        assert report.violations[0].witness is not None

    def test_mirrored_tile_rows_cost_nothing(self):
        from repro.core import mark_parallelism, tile_schedule
        from repro.polyhedra.cache import global_cache

        p, ddg = setup(FIG1)
        s = PlutoScheduler(p, ddg, SchedulerOptions()).schedule()
        mark_parallelism(s, ddg)

        def lookups(sched):
            global_cache().clear()
            before = global_cache().stats.snapshot()
            assert verify_schedule(sched, ddg).legal
            return global_cache().stats.delta_since(before).min_lookups

        # its parallel marks are checked (TestParallelMarks); without them
        # the tile rows mirrored by loop rows add no question
        from repro.core.tiling import TiledSchedule

        tiled = tile_schedule(s, tile_size=4)
        unmarked = TiledSchedule(p, [
            dataclasses.replace(r, parallel=r.parallel and r.kind == "loop")
            for r in tiled.rows if r.kind != "wavefront"
        ])
        assert lookups(unmarked) == lookups(s)

    @pytest.mark.parametrize("name", ["heat-1dp", "fig4-periodic-stencil"])
    def test_result_is_verified_as_executed(self, name):
        from repro import api
        from repro.workloads import get_workload

        result = api.optimize(name, get_workload(name).pipeline_options("plutoplus"))
        assert result.used_diamond
        assert [r.kind for r in result.tiled.rows] == [
            "wavefront", "tile", "tile", "loop", "loop",
        ]
        assert api.verify(result).legal
        # swapping in a hyperplane that runs against the time axis is caught,
        # though the point rows (source order) alone are legal
        stmt_exprs = result.tiled.rows[1].exprs
        result.tiled.rows[1].exprs = {n: -e for n, e in stmt_exprs.items()}
        assert not api.verify(result).legal


DIAGONAL = """
for (i = 1; i < N; i++)
    for (j = 1; j < N; j++)
        A[i][j] = A[i-1][j-1];
"""


class TestParallelMarks:
    """Every ``parallel`` mark — loop, tile and wavefront-inner rows — may
    carry no dependence pair that reaches it."""

    @staticmethod
    def band(p, marks, wavefront=False):
        """Tile rows ``i``, ``j`` (tile 4) over loop rows ``i``, ``j``, the
        tile rows marked ``marks``, optionally scanned as a wavefront."""
        from repro.core.tiling import TiledRow, TiledSchedule

        stmt = p.statements[0]
        i, j = (AffExpr.from_terms(stmt.space, {it: 1}) for it in ("i", "j"))
        rows = [
            TiledRow("tile", {stmt.name: e}, tile_size=4, parallel=m, band_role="tile")
            for e, m in zip((i, j), marks)
        ]
        if wavefront:
            rows.insert(0, TiledRow("wavefront", {}, parallel=False, band_role="wavefront"))
        rows += [TiledRow("loop", {stmt.name: e}, band_role="point") for e in (i, j)]
        return TiledSchedule(p, rows)

    def test_tile_row_carrying_across_its_boundary_is_rejected(self):
        # point row j is parallel — every pair is ordered by i first — but a
        # pair inside one i tile can cross a j tile boundary
        p, ddg = setup(DIAGONAL)
        assert verify_schedule(self.band(p, [False, False]), ddg).legal
        report = verify_schedule(self.band(p, [False, True]), ddg)
        assert not report.legal
        (v,) = report.violations
        assert v.parallel and v.level == 1
        assert "carried by parallel level 1" in str(report)
        w = v.witness
        # one i tile, two j tiles: the witness is a pair the mark races on
        assert w["T0.src"] == w["T0.tgt"] and w["T1.src"] < w["T1.tgt"]
        assert w["i__t"] == w["i__s"] + 1 and w["j__t"] == w["j__s"] + 1

    def test_api_verify_checks_parallel_marks(self):
        from repro import api

        p, _ = setup(DIAGONAL)
        assert api.verify(self.band(p, [False, False]), p).legal
        assert not api.verify(self.band(p, [False, True]), p).legal

    def test_wavefront_inner_row_is_checked(self):
        p, ddg = setup(DIAGONAL)  # distance (1, 1): forward on both rows
        assert verify_schedule(self.band(p, [True, False], wavefront=True), ddg).legal
        # without the wavefront the same mark races on every i tile boundary
        report = verify_schedule(self.band(p, [True, False]), ddg)
        assert [(v.level, v.parallel) for v in report.violations] == [(0, True)]

    def test_wavefront_over_a_backward_row_is_rejected(self):
        # (1, -1): a pair at one w, one tile apart on each row
        p, ddg = setup(FIG1.replace("A[i+1][j+1]", "A[i+1][j-1]"))
        report = verify_schedule(self.band(p, [True, False], wavefront=True), ddg)
        assert [(v.level, v.parallel) for v in report.violations] == [(1, True)]

    def test_loop_row_that_carries_is_rejected(self):
        p, ddg = setup(FIG1)
        s = hand_schedule(p, [{"i": 1}, {"j": 1}])
        s.rows[1].parallel = True  # pairs reaching j sit at distance 0: sound
        assert verify_schedule(s, ddg).legal
        s.rows[0].parallel = True
        report = verify_schedule(s, ddg)
        assert [(v.level, v.parallel) for v in report.violations] == [(0, True)]
