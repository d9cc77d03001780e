"""Tests for scan systems (bounds, inverse, image) and original-order codegen."""

import pytest

from repro.codegen import build_scan_systems, generate_python, original_schedule
from repro.core.tiling import TiledRow, TiledSchedule
from repro.frontend import parse_program
from repro.polyhedra import AffExpr


def program_and_sched(src, params=("N",), **kw):
    p = parse_program(src, "p", params=params, **kw)
    return p, original_schedule(p)


class TestOriginalSchedule:
    def test_single_loop(self):
        p, ts = program_and_sched("for (i = 0; i < N; i++) A[i] = 1.0;")
        kinds = [r.kind for r in ts.rows]
        assert kinds == ["scalar", "loop", "scalar"]

    def test_two_statements_share_loop(self):
        src = """
        for (i = 0; i < N; i++) {
            A[i] = 1.0;
            B[i] = 2.0;
        }
        """
        p, ts = program_and_sched(src)
        last = ts.rows[-1]
        assert last.expr_for("S0").const_term == 0
        assert last.expr_for("S1").const_term == 1

    def test_depth_padding(self):
        src = """
        for (i = 0; i < N; i++) A[i] = 1.0;
        for (i = 0; i < N; i++) for (j = 0; j < N; j++) C[i][j] = A[i];
        """
        p, ts = program_and_sched(src)
        assert ts.depth == 5  # beta, i, beta, j, beta
        # the shallow statement is padded with constant zero at the j level
        assert ts.rows[3].expr_for("S0").is_constant()


class TestScanSystems:
    def test_z_bounds_simple(self):
        p, ts = program_and_sched("for (i = 0; i < N; i++) A[i] = 1.0;")
        sys = build_scan_systems(ts)[0]
        lowers, uppers = sys.z_bounds(1)
        assert lowers and uppers

    def test_iterator_name_collision_rejected(self):
        src = "for (z0 = 0; z0 < N; z0++) A[z0] = 1.0;"
        p, ts = program_and_sched(src)
        with pytest.raises(ValueError):
            build_scan_systems(ts)

    def test_triangular_bounds_follow_outer(self):
        src = "for (i = 0; i < N; i++) for (j = 0; j <= i; j++) A[i][j] = 1.0;"
        p, ts = program_and_sched(src)
        sys = build_scan_systems(ts)[0]
        _, uppers = sys.z_bounds(3)  # the j level
        rendered = {str(b.expr) for b in uppers}
        assert any("z1" in r for r in rendered)  # j <= i == z1


class TestInverseAndImage:
    SRC = "for (i = 0; i < N; i++) for (j = 0; j < N; j++) A[i][j] = 1.0;"

    def _system(self, *rows):
        p = parse_program(self.SRC, "p", params=("N",))
        space = p.statements[0].space
        tsched = TiledSchedule(p, [
            TiledRow(kind, {"S0": AffExpr.from_terms(space, terms)}, tile_size=ts)
            for kind, terms, ts in rows
        ])
        return build_scan_systems(tsched)[0]

    def test_identity_inverse_needs_no_division(self):
        sys = self._system(("loop", {"i": 1}, None), ("loop", {"j": 1}, None))
        assert [str(n) for n in sys.nums] == ["z0", "z1"]
        assert sys.dens == [1, 1]

    def test_determinant_two_map_inverts_over_a_common_denominator(self):
        # z0 = i + j, z1 = i - j  ->  i = (z0 + z1) / 2, j = (z0 - z1) / 2
        sys = self._system(("loop", {"i": 1, "j": 1}, None), ("loop", {"i": 1, "j": -1}, None))
        assert sys.dens == [2, 2]
        assert sys.nums[0].terms() == {"z0": 1, "z1": 1}
        assert sys.nums[1].terms() == {"z0": 1, "z1": -1}
        # the image is the domain with the quotients substituted (scaled by
        # 2, then gcd-normalized): no iterator survives, nothing projected
        assert all(c.coeff_of("i") == 0 == c.coeff_of("j") for c in sys.image.constraints)
        lowers, uppers = sys.image_bounds(1)
        assert {str(b.expr) for b in lowers} == {"-z0", "z0 - 2N + 2"}
        assert {str(b.expr) for b in uppers} == {"z0", "-z0 + 2N - 2"}

    def test_tile_rows_bound_the_image_but_are_never_inverted(self):
        sys = self._system(
            ("tile", {"i": 1}, 4), ("loop", {"i": 1}, None), ("loop", {"j": 1}, None)
        )
        assert [str(n) for n in sys.nums] == ["z1", "z2"]
        lowers, uppers = sys.image_bounds(1)
        assert "4z0" in {str(b.expr) for b in lowers}
        assert "4z0 + 3" in {str(b.expr) for b in uppers}

    def test_redundant_loop_row_becomes_an_equality_of_the_image(self):
        sys = self._system(
            ("loop", {"i": 1}, None), ("loop", {"j": 1}, None), ("loop", {"i": 1}, None)
        )
        assert [str(n) for n in sys.nums] == ["z0", "z1"]
        (eq,) = [c for c in sys.image.constraints if c.equality]
        assert {abs(eq.coeff_of("z0")), abs(eq.coeff_of("z2"))} == {1}


class TestGeneratedOriginal:
    def test_executes_in_source_order(self):
        src = """
        for (i = 0; i < N; i++) {
            A[i] = 1.0;
            B[i] = A[i] + 1.0;
        }
        """
        p, ts = program_and_sched(src)
        code = generate_python(ts, trace=True)
        from repro.runtime import random_arrays

        arrays = random_arrays(p, {"N": 3})
        trace = []
        code.run(arrays, {"N": 3}, trace)
        assert trace == [
            ("S0", (0,)), ("S1", (0,)),
            ("S0", (1,)), ("S1", (1,)),
            ("S0", (2,)), ("S1", (2,)),
        ]

    def test_guarded_statement_skips_points(self):
        src = """
        for (i = 0; i < N; i++)
            for (j = 0; j < N; j++)
                if (j <= i - 1)
                    A[i][j] = 1.0;
        """
        p, ts = program_and_sched(src)
        code = generate_python(ts, trace=True)
        from repro.runtime import allocate_arrays

        arrays = allocate_arrays(p, {"N": 3})
        trace = []
        code.run(arrays, {"N": 3}, trace)
        assert ("S0", (0, 0)) not in trace
        assert ("S0", (1, 0)) in trace
        assert len(trace) == 3

    def test_each_point_exactly_once(self):
        src = "for (i = 0; i < N; i++) for (j = i; j < N; j++) A[i][j] = 1.0;"
        p, ts = program_and_sched(src)
        code = generate_python(ts, trace=True)
        from repro.runtime import allocate_arrays

        arrays = allocate_arrays(p, {"N": 4})
        trace = []
        code.run(arrays, {"N": 4}, trace)
        pts = [t[1] for t in trace]
        assert len(pts) == len(set(pts)) == 10
