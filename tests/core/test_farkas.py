"""Tests for Farkas-lemma constraint generation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bounding_constraints, c0_name, c_name, legality_constraints
from repro.deps import compute_dependences
from repro.frontend import parse_program
from repro.ilp import ILPModel, ILPStatus
from tests.ilp.branch_bound import solve_ilp


def single_dep(src, params=("N",), kind="raw"):
    p = parse_program(src, "p", params=params)
    deps = [d for d in compute_dependences(p) if d.kind == kind]
    assert deps, "expected at least one dependence"
    return p, deps[0]


def build_model_for(dep, constraints, bound=4):
    """A small model over the coefficient variables the constraints use."""
    m = ILPModel()
    names = set()
    for con in constraints:
        names.update(con.coeffs)
    for n in sorted(names):
        if n.startswith("c.") :
            m.add_variable(n, lower=-bound, upper=bound)
        else:
            m.add_variable(n, lower=0)
    for con in constraints:
        m.add_constraint(con.coeffs, con.const, con.equality)
    return m


UNIFORM_11 = """
for (i = 0; i < N; i++)
    for (j = 0; j < N; j++)
        A[i+1][j+1] = 2.0 * A[i][j];
"""


class TestLegality:
    def test_identity_hyperplanes_feasible(self):
        p, dep = single_dep(UNIFORM_11)
        cons = legality_constraints(dep)
        m = build_model_for(dep, cons)
        s = dep.source
        # phi = i  (c_i = 1, c_j = 0) is legal for dep (1,1)
        fix = [
            ({c_name(s, "i"): 1}, -1),
            ({c_name(s, "j"): 1}, 0),
        ]
        for coeffs, const in fix:
            m.add_constraint(coeffs, const, equality=True)
        assert solve_ilp(m, {}).is_optimal

    def test_reversal_infeasible_for_forward_dep(self):
        p, dep = single_dep(UNIFORM_11)
        cons = legality_constraints(dep)
        m = build_model_for(dep, cons)
        s = dep.source
        # phi = -i - j has distance -2 < 0: must be cut off
        m.add_constraint({c_name(s, "i"): 1}, 1, equality=True)   # c_i = -1
        m.add_constraint({c_name(s, "j"): 1}, 1, equality=True)   # c_j = -1
        res = solve_ilp(m, {})
        assert res.status == ILPStatus.INFEASIBLE

    def test_negative_skew_feasible_when_legal(self):
        p, dep = single_dep(UNIFORM_11)
        cons = legality_constraints(dep)
        m = build_model_for(dep, cons)
        s = dep.source
        # phi = i - j has distance 0 for dep (1,1): legal
        m.add_constraint({c_name(s, "i"): 1}, -1, equality=True)
        m.add_constraint({c_name(s, "j"): 1}, 1, equality=True)
        assert solve_ilp(m, {}).is_optimal

    def test_constraints_reference_both_statements(self):
        src = """
        for (i = 0; i < N; i++)
            B[i] = 2.0 * A[i];
        for (i = 0; i < N; i++)
            C[i] = 3.0 * B[i];
        """
        p, dep = single_dep(src)
        cons = legality_constraints(dep)
        names = set()
        for con in cons:
            names.update(con.coeffs)
        assert any(dep.source.name in n for n in names)
        assert any(dep.target.name in n for n in names)


class TestBounding:
    def test_u_w_appear(self):
        p, dep = single_dep(UNIFORM_11)
        cons = bounding_constraints(dep)
        names = set()
        for con in cons:
            names.update(con.coeffs)
        assert "w" in names or any(n.startswith("u.") for n in names)

    def test_w_lower_bound_for_identity(self):
        """With phi = i the distance is exactly 1, so w >= 1 when u = 0."""
        p, dep = single_dep(UNIFORM_11)
        cons = bounding_constraints(dep)
        m = build_model_for(dep, cons)
        s = dep.source
        for extra in ("w", "u.N"):
            if extra not in m.variables:
                m.add_variable(extra, lower=0)
        m.add_constraint({c_name(s, "i"): 1}, -1, equality=True)
        m.add_constraint({c_name(s, "j"): 1}, 0, equality=True)
        m.add_constraint({"u.N": 1}, 0, equality=True)  # u = 0
        res = solve_ilp(m, {"w": 1})
        assert res.is_optimal
        assert res.assignment["w"] >= 1


class TestSoundnessProperty:
    """Farkas output must admit exactly the legal hyperplanes (checked by
    sampling candidate hyperplanes and comparing with the exact distance)."""

    @given(
        ci=st.integers(-2, 2),
        cj=st.integers(-2, 2),
    )
    @settings(max_examples=25, deadline=None)
    def test_legality_matches_exact_min_distance(self, ci, cj):
        from repro.polyhedra import AffExpr

        p, dep = single_dep(UNIFORM_11)
        cons = legality_constraints(dep)
        m = build_model_for(dep, cons)
        s = dep.source
        m.add_constraint({c_name(s, "i"): 1}, -ci, equality=True)
        m.add_constraint({c_name(s, "j"): 1}, -cj, equality=True)
        # free shift allowed; pin it to zero for exactness
        if c0_name(s) in m.variables:
            m.add_constraint({c0_name(s): 1}, 0, equality=True)
        feasible = solve_ilp(m, {}).is_optimal

        phi = AffExpr.from_terms(s.space, {"i": ci, "j": cj})
        mn = dep.min_distance(phi, phi)
        exact_legal = mn is not None and mn >= 0
        assert feasible == exact_legal
