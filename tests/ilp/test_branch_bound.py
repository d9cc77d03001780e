"""Unit tests for branch-and-bound ILP on top of the exact simplex."""

from fractions import Fraction

import pytest

from repro.ilp import ILPModel, ILPStatus
from tests.ilp.branch_bound import BranchAndBoundError, solve_ilp


class TestILP:
    def test_integral_relaxation_needs_no_branching(self):
        m = ILPModel()
        m.add_variable("x")
        m.add_constraint({"x": 1}, -3)
        res = solve_ilp(m, {"x": 1})
        assert res.is_optimal and res.objective == 3
        assert res.stats.lp_solves == 1

    def test_rounding_up_fractional(self):
        # min x  s.t.  2x >= 1, x integer  ->  x = 1 (LP gives 1/2)
        m = ILPModel()
        m.add_variable("x")
        m.add_constraint({"x": 2}, -1)
        res = solve_ilp(m, {"x": 1})
        assert res.objective == 1
        assert res.assignment["x"] == 1

    def test_knapsack_style(self):
        # max 5a + 4b  s.t. 6a + 5b <= 14, a,b in {0..2}
        m = ILPModel()
        m.add_variable("a", lower=0, upper=2)
        m.add_variable("b", lower=0, upper=2)
        m.add_constraint({"a": -6, "b": -5}, 14)
        res = solve_ilp(m, {"a": -5, "b": -4})
        assert res.is_optimal
        assert -res.objective == 10  # a=2, b=0 (LP optimum is fractional)
        assert 6 * res.assignment["a"] + 5 * res.assignment["b"] <= 14

    def test_infeasible_integer_but_feasible_lp(self):
        # 2 <= 4x <= 3 has rational but no integer solution
        m = ILPModel()
        m.add_variable("x")
        m.add_constraint({"x": 4}, -2)
        m.add_constraint({"x": -4}, 3)
        res = solve_ilp(m, {"x": 1})
        assert res.status == ILPStatus.INFEASIBLE

    def test_negative_bounds(self):
        m = ILPModel()
        m.add_variable("c", lower=-4, upper=4)
        m.add_constraint({"c": 2}, -3)  # 2c >= 3 -> c >= 2 for integers
        res = solve_ilp(m, {"c": 1})
        assert res.assignment["c"] == 2

    def test_unbounded(self):
        m = ILPModel()
        m.add_variable("x", lower=None)
        res = solve_ilp(m, {"x": 1})
        assert res.status == ILPStatus.UNBOUNDED

    def test_mixed_integer(self):
        # x integer, y continuous: min x + y s.t. 2x + 2y >= 3, y <= 1/2 via 2y<=1
        m = ILPModel()
        m.add_variable("x")
        m.add_variable("y", integer=False)
        m.add_constraint({"x": 2, "y": 2}, -3)
        m.add_constraint({"y": -2}, 1)
        res = solve_ilp(m, {"x": 1, "y": 1})
        assert res.is_optimal
        assert res.assignment["x"].denominator == 1
        assert res.objective == Fraction(3, 2)

    def test_node_limit_raises(self):
        # An intentionally branch-heavy model with a tiny node limit.
        m = ILPModel()
        for i in range(6):
            m.add_variable(f"x{i}", lower=0, upper=1)
        m.add_constraint({f"x{i}": 2 for i in range(6)}, -7)
        with pytest.raises(BranchAndBoundError):
            solve_ilp(m, {f"x{i}": 1 for i in range(6)}, node_limit=1)

    def test_paper_style_delta_model(self):
        # The shape used by zero-solution avoidance: c in [-4,4]^2, delta binary,
        # 5^0 c1 + 5^1 c2 >= 1 - 25 delta ; -(...) >= 1 - 25 (1 - delta).
        m = ILPModel()
        m.add_variable("c1", lower=-4, upper=4)
        m.add_variable("c2", lower=-4, upper=4)
        m.add_variable("delta", lower=0, upper=1)
        m.add_constraint({"c1": 1, "c2": 5, "delta": 25}, -1)
        m.add_constraint({"c1": -1, "c2": -5, "delta": -25}, 24)
        res = solve_ilp(m, {"c1": 1, "c2": 1})
        assert res.is_optimal
        assert (res.assignment["c1"], res.assignment["c2"]) != (0, 0)
