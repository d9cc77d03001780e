"""Unit tests for the exact rational simplex."""

from fractions import Fraction

import pytest

from repro.ilp import ILPModel
from tests.ilp.simplex import LPStatus, solve_lp


def _model_2d(lower=0):
    m = ILPModel()
    m.add_variable("x", lower=lower)
    m.add_variable("y", lower=lower)
    return m


class TestBasicLP:
    def test_trivial_minimum_at_lower_bounds(self):
        m = _model_2d()
        res = solve_lp(m, {"x": 1, "y": 1})
        assert res.is_optimal
        assert res.objective == 0
        assert res.assignment["x"] == 0 and res.assignment["y"] == 0

    def test_single_constraint(self):
        # minimize x + y  s.t.  x + y >= 3
        m = _model_2d()
        m.add_constraint({"x": 1, "y": 1}, -3)
        res = solve_lp(m, {"x": 1, "y": 1})
        assert res.is_optimal and res.objective == 3

    def test_equality_constraint(self):
        m = _model_2d()
        m.add_constraint({"x": 1, "y": 2}, -4, equality=True)
        res = solve_lp(m, {"x": 1})
        assert res.is_optimal and res.objective == 0
        assert res.assignment["y"] == 2

    def test_infeasible(self):
        m = _model_2d()
        m.add_constraint({"x": 1}, -5)          # x >= 5
        m.add_constraint({"x": -1}, 3)          # x <= 3
        res = solve_lp(m, {"x": 1})
        assert res.status == LPStatus.INFEASIBLE

    def test_unbounded(self):
        m = ILPModel()
        m.add_variable("x", lower=None)
        res = solve_lp(m, {"x": 1})
        assert res.status == LPStatus.UNBOUNDED

    def test_fractional_optimum(self):
        # minimize y  s.t.  2y >= 1
        m = ILPModel()
        m.add_variable("y")
        m.add_constraint({"y": 2}, -1)
        res = solve_lp(m, {"y": 1})
        assert res.objective == Fraction(1, 2)

    def test_maximize_via_negation(self):
        # maximize x subject to x <= 7  ==  minimize -x
        m = ILPModel()
        m.add_variable("x", lower=0, upper=7)
        res = solve_lp(m, {"x": -1})
        assert res.is_optimal and res.assignment["x"] == 7

    def test_unknown_objective_var_raises(self):
        m = _model_2d()
        with pytest.raises(KeyError):
            solve_lp(m, {"z": 1})


class TestVariableKinds:
    def test_negative_lower_bound(self):
        m = ILPModel()
        m.add_variable("c", lower=-4, upper=4)
        res = solve_lp(m, {"c": 1})
        assert res.assignment["c"] == -4

    def test_upper_only_variable(self):
        m = ILPModel()
        m.add_variable("x", lower=None, upper=10)
        res = solve_lp(m, {"x": -1})
        assert res.assignment["x"] == 10

    def test_free_variable_with_constraints(self):
        m = ILPModel()
        m.add_variable("x", lower=None)
        m.add_constraint({"x": 1}, 5)  # x >= -5
        res = solve_lp(m, {"x": 1})
        assert res.assignment["x"] == -5

    def test_bounds_respected_in_constrained_problem(self):
        m = ILPModel()
        m.add_variable("x", lower=1, upper=3)
        m.add_variable("y", lower=0)
        m.add_constraint({"x": 1, "y": 1}, -6)  # x + y >= 6
        res = solve_lp(m, {"y": 1})
        assert res.assignment["x"] == 3 and res.assignment["y"] == 3

    def test_bad_bounds_rejected(self):
        m = ILPModel()
        with pytest.raises(ValueError):
            m.add_variable("x", lower=3, upper=1)


class TestDegenerateAndExactness:
    def test_degenerate_does_not_cycle(self):
        # A classic degenerate configuration; Bland's rule must terminate.
        m = ILPModel()
        for name in ("a", "b", "c"):
            m.add_variable(name)
        m.add_constraint({"a": 1, "b": -1}, 0)
        m.add_constraint({"a": -1, "b": 1}, 0)
        m.add_constraint({"a": 1, "b": 1, "c": 1}, -1)
        res = solve_lp(m, {"a": 1, "b": 1, "c": 2})
        assert res.is_optimal
        assert res.objective == 1

    def test_exact_fractions_no_drift(self):
        # minimize x  s.t.  3x >= 1, 7x >= 2  ->  x = max(1/3, 2/7) = 1/3
        m = ILPModel()
        m.add_variable("x")
        m.add_constraint({"x": 3}, -1)
        m.add_constraint({"x": 7}, -2)
        res = solve_lp(m, {"x": 1})
        assert res.objective == Fraction(1, 3)

    def test_redundant_equalities_ok(self):
        m = _model_2d()
        m.add_constraint({"x": 1, "y": 1}, -2, equality=True)
        m.add_constraint({"x": 2, "y": 2}, -4, equality=True)  # same plane
        res = solve_lp(m, {"x": 1})
        assert res.is_optimal and res.objective == 0

    def test_assignment_satisfies_model(self):
        m = ILPModel()
        m.add_variable("x", lower=-10, upper=10, integer=False)
        m.add_variable("y", lower=-10, upper=10, integer=False)
        m.add_constraint({"x": 2, "y": 3}, -6)
        m.add_constraint({"x": -1, "y": 1}, 4)
        res = solve_lp(m, {"x": 1, "y": 5})
        assert res.is_optimal
        assert m.check({**res.assignment})
