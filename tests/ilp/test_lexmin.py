"""Unit and property tests for the lexmin driver and backend agreement."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilp import HighsSession, ILPModel, ILPStatus, lexmin, solve_ilp


def _chain_model():
    # minimize (u, w) lexicographically: u >= w - 2, u + w >= 3, all >= 0
    m = ILPModel()
    m.add_variable("u")
    m.add_variable("w")
    m.add_constraint({"u": 1, "w": -1}, 2)
    m.add_constraint({"u": 1, "w": 1}, -3)
    m.set_objective_order(["u", "w"])
    return m


class TestLexmin:
    def test_orders_matter(self):
        m = _chain_model()
        res = lexmin(m, backend="exact")
        assert res.is_optimal
        # u minimized first: u >= w - 2 and u + w >= 3 -> min u is ceil(1/2)=1? u=w-2,u+w=3 -> u=1/2 -> integer: u=1,w=2
        assert res.assignment["u"] == 1
        assert res.assignment["w"] == 2
        assert res.values == [1, 2]

    def test_reverse_order_changes_solution(self):
        m = _chain_model()
        m.set_objective_order(["w", "u"])
        res = lexmin(m, backend="exact")
        assert res.assignment["w"] == 0
        assert res.assignment["u"] == 3

    def test_no_objective_raises(self):
        m = ILPModel()
        m.add_variable("x")
        with pytest.raises(ValueError):
            lexmin(m)

    def test_infeasible(self):
        m = ILPModel()
        m.add_variable("x", lower=0, upper=1)
        m.add_constraint({"x": 1}, -2)
        m.set_objective_order(["x"])
        res = lexmin(m, backend="exact")
        assert res.status == ILPStatus.INFEASIBLE

    def test_unbounded(self):
        m = ILPModel()
        m.add_variable("x", lower=None)
        m.set_objective_order(["x"])
        res = lexmin(m, backend="exact")
        assert res.status == ILPStatus.UNBOUNDED

    def test_lower_bound_shortcut_skips_solves(self):
        m = ILPModel()
        for i in range(5):
            m.add_variable(f"x{i}", lower=0, upper=4)
        m.add_constraint({"x0": 1}, -1)  # only x0 is pushed off its bound
        m.set_objective_order([f"x{i}" for i in range(5)])
        res = lexmin(m, backend="exact")
        assert res.is_optimal
        assert res.solves == 1  # x1..x4 resolved by the lower-bound shortcut
        assert [int(v) for v in res.values] == [1, 0, 0, 0, 0]

    def test_unknown_backend_rejected(self):
        m = _chain_model()
        for name in ("gurobi", "auto"):
            with pytest.raises(ValueError, match="unknown ILP backend"):
                lexmin(m, backend=name)

    def test_default_backend_is_highs(self):
        assert lexmin(_chain_model()).backend == "highs"

    def test_highs_backend_agrees(self):
        m = _chain_model()
        exact = lexmin(m, backend="exact")
        fast = lexmin(m, backend="highs")
        assert exact.values == fast.values

    def test_result_satisfies_model(self):
        m = _chain_model()
        res = lexmin(m, backend="exact")
        assert m.check(res.assignment)


@st.composite
def random_ilp(draw):
    """Small random bounded ILPs (always feasible: box contains solutions)."""
    nvars = draw(st.integers(1, 4))
    m = ILPModel()
    names = []
    for i in range(nvars):
        lo = draw(st.integers(-3, 0))
        hi = draw(st.integers(1, 4))
        name = f"v{i}"
        m.add_variable(name, lower=lo, upper=hi)
        names.append(name)
    # One shared witness point anchors every constraint, so the model is
    # feasible by construction.
    witness = {
        n: draw(st.integers(m.variables[n].lower, m.variables[n].upper))
        for n in names
    }
    ncons = draw(st.integers(0, 3))
    for _ in range(ncons):
        coeffs = {
            n: draw(st.integers(-3, 3)) for n in names if draw(st.booleans())
        }
        if not coeffs:
            continue
        val = sum(c * witness[n] for n, c in coeffs.items())
        m.add_constraint(coeffs, -val)  # expr >= expr(witness)
    m.set_objective_order(names)
    return m


class TestHighsVerification:
    def test_failed_verification_is_decided_by_the_exact_solver(self, monkeypatch):
        """A HiGHS point that violates the model is not evidence of
        infeasibility: ``BasicSet.is_empty`` would drop a dependence."""
        import numpy as np

        from repro.ilp import highs_backend

        m = ILPModel()
        m.add_variable("x", lower=0, upper=10)
        m.add_variable("y", lower=0, upper=10)
        m.add_constraint({"x": 1, "y": 1}, -3)   # x + y >= 3
        obj = {"x": 1, "y": 2}

        real, injected = highs_backend.highs, []

        def off_by_a_row(*args, **kwargs):
            res = real(*args, **kwargs)
            injected.append(res.status)
            return res._replace(x=np.zeros_like(res.x))  # violates x + y >= 3

        monkeypatch.setattr(highs_backend, "highs", off_by_a_row)
        got = HighsSession(m).solve(obj)
        assert injected == [0]  # the one HiGHS entry ran, and its point was replaced
        want = solve_ilp(m, obj)
        assert (got.status, got.objective, got.assignment) == (
            want.status, want.objective, want.assignment
        )
        assert got.is_optimal and got.objective == 3


class TestBackendAgreement:
    @given(random_ilp())
    @settings(max_examples=40, deadline=None)
    def test_exact_vs_highs_single_objective(self, m):
        obj = {m.var_names()[0]: 1}
        exact = solve_ilp(m, obj)
        fast = HighsSession(m).solve(obj)
        assert exact.status == fast.status
        if exact.is_optimal:
            assert exact.objective == fast.objective

    @given(random_ilp())
    @settings(max_examples=30, deadline=None)
    def test_exact_vs_highs_lexmin(self, m):
        exact = lexmin(m, backend="exact")
        fast = lexmin(m, backend="highs")
        assert exact.status == fast.status
        if exact.is_optimal:
            assert exact.values == fast.values

    @given(random_ilp())
    @settings(max_examples=30, deadline=None)
    def test_lexmin_solution_feasible(self, m):
        res = lexmin(m, backend="exact")
        assert res.is_optimal  # constructed to be feasible
        assert m.check(res.assignment)

    @given(random_ilp())
    @settings(max_examples=30, deadline=None)
    def test_lexmin_first_component_is_global_min(self, m):
        res = lexmin(m, backend="exact")
        first = m.objective_order[0]
        single = solve_ilp(m, {first: 1})
        assert res.assignment[first] == single.objective
