"""Tests for orthogonal sub-spaces and the radix encodings (Sections 3.3-3.4)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    c_name,
    orthogonal_basis_rows,
    orthogonal_projector_rows,
    pluto_independence_constraints,
    plutoplus_independence_constraints,
    plutoplus_nonzero_constraints,
)
from repro.frontend import parse_program


def stmt_3d():
    src = "for (i = 0; i < N; i++) for (j = 0; j < N; j++) for (k = 0; k < N; k++) A[i][j][k] = 1;"
    return parse_program(src, "s3", params=("N",)).statements[0]


def stmt_2d():
    src = "for (i = 0; i < N; i++) for (j = 0; j < N; j++) A[i][j] = 1;"
    return parse_program(src, "s2", params=("N",)).statements[0]


class TestProjector:
    def test_empty_h_is_identity(self):
        assert orthogonal_projector_rows([], 3) == [
            [1, 0, 0], [0, 1, 0], [0, 0, 1],
        ]

    def test_paper_example_e1(self):
        # H = [1 0 0] -> perp spans {e2, e3} (Section 3.4)
        rows = orthogonal_projector_rows([[1, 0, 0]], 3)
        assert rows == [[0, 1, 0], [0, 0, 1]]

    def test_paper_example_skewed(self):
        # H = [1 1 0] -> rows like [1 -1 0] and [0 0 1]
        rows = orthogonal_projector_rows([[1, 1, 0]], 3)
        assert len(rows) == 2
        for r in rows:
            assert r[0] + r[1] == 0
        assert any(r[2] != 0 for r in rows)

    def test_full_rank_gives_empty(self):
        assert orthogonal_projector_rows([[1, 0], [0, 1]], 2) == []

    def test_dependent_h_rows_handled(self):
        rows = orthogonal_projector_rows([[1, 0, 0], [2, 0, 0]], 3)
        assert len(rows) == 2

    def test_rows_orthogonal_to_h(self):
        h = [[1, 2, 1]]
        for r in orthogonal_projector_rows(h, 3):
            assert sum(a * b for a, b in zip(h[0], r)) == 0


class TestRadixEncodings:
    """The radix trick must exclude exactly the zero vector over the box."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_nonzero_exact_over_box(self, m):
        b = 2  # small bound: exhaustive check feasible
        src = "A[%s] = 1;" % "][".join("ijk"[:m])
        loops = "".join(
            f"for ({v} = 0; {v} < N; {v}++) " for v in "ijk"[:m]
        )
        stmt = parse_program(loops + src, "s", params=("N",)).statements[0]
        cons = plutoplus_nonzero_constraints(stmt, b)
        names = [c_name(stmt, it) for it in stmt.space.dims]
        for combo in itertools.product(range(-b, b + 1), repeat=m):
            point = dict(zip(names, combo))
            # at least one delta value must make all constraints hold iff nonzero
            feasible = any(
                all(
                    con.is_satisfied({**point, f"dz.{stmt.name}": dz})
                    for con in cons
                )
                for dz in (0, 1)
            )
            assert feasible == (any(combo)), combo

    def test_paper_base5_coefficients(self):
        stmt = stmt_2d()
        cons = plutoplus_nonzero_constraints(stmt, 4)
        # radix is b+1 = 5: weights 1 and 5, big-M 25 (eqs. (5)/(6))
        weights = sorted(
            abs(v)
            for con in cons
            for k, v in con.coeffs.items()
            if k.startswith("c.")
        )
        assert weights == [1, 1, 5, 5]
        deltas = {
            abs(v)
            for con in cons
            for k, v in con.coeffs.items()
            if k.startswith("dz.")
        }
        assert deltas == {25}

    def test_independence_paper_example(self):
        """H = [1 1], b = 4: perp row is +-[1 -1], max row value 8, radix 9."""
        stmt = stmt_2d()
        cons = plutoplus_independence_constraints(stmt, [[1, 1]], 4)
        assert len(cons) == 2
        big_ms = {
            abs(v)
            for con in cons
            for k, v in con.coeffs.items()
            if k.startswith("dl.")
        }
        assert big_ms == {9}
        # ablation A2: one binary delta^l per statement covers the whole
        # orthogonal sub-space (an orthant encoding needs two per row)
        deltas = {k for con in cons for k in con.coeffs if k.startswith("dl.")}
        assert deltas == {f"dl.{stmt.name}"}

    def test_independence_excludes_exactly_dependents(self):
        b = 2
        stmt = stmt_2d()
        h = [[1, 1]]
        cons = plutoplus_independence_constraints(stmt, h, b)
        names = [c_name(stmt, it) for it in stmt.space.dims]
        for combo in itertools.product(range(-b, b + 1), repeat=2):
            point = dict(zip(names, combo))
            feasible = any(
                all(
                    con.is_satisfied({**point, f"dl.{stmt.name}": dl})
                    for con in cons
                )
                for dl in (0, 1)
            )
            # dependent on (1,1) means c = k*(1,1): c1 == c2
            independent = combo[0] != combo[1]
            assert feasible == independent, combo

    def test_full_rank_no_constraints(self):
        stmt = stmt_2d()
        assert plutoplus_independence_constraints(stmt, [[1, 0], [0, 1]], 4) == []


class TestPlutoIndependence:
    def test_level0_sum_constraint(self):
        stmt = stmt_2d()
        cons = pluto_independence_constraints(stmt, [])
        # c_i >= 0 rows plus the sum >= 1 row
        sums = [c for c in cons if c.const == -1]
        assert len(sums) == 1
        assert set(sums[0].coeffs.values()) == {1}

    def test_restricts_to_nonneg_orthant(self):
        stmt = stmt_3d()
        cons = pluto_independence_constraints(stmt, [[1, 1, 0]])
        names = [c_name(stmt, it) for it in stmt.space.dims]
        # (1, -1, 0): in the orthogonal space but outside the chosen orthant?
        # row r = [1,-1,0]: r.c = 2 >= 0 OK; the sum row decides.
        point = dict(zip(names, (0, 0, 1)))  # e3: inside
        assert all(con.is_satisfied(point) for con in cons)
        point = dict(zip(names, (-1, 1, 0)))  # -e1+e2: r.c = -2 < 0 -> excluded
        assert not all(con.is_satisfied(point) for con in cons)

    def test_full_rank_no_constraints(self):
        stmt = stmt_2d()
        assert pluto_independence_constraints(stmt, [[1, 0], [0, 1]]) == []


class TestBasisRows:
    @given(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=3, max_size=3),
            min_size=1,
            max_size=2,
        )
    )
    @settings(max_examples=40)
    def test_basis_orthogonal(self, h):
        rows = orthogonal_basis_rows(h, 3)
        for r in rows:
            for hrow in h:
                assert sum(a * b for a, b in zip(hrow, r)) == 0
