"""Radix-folded lexmin objectives and the HiGHS session.

The lexmin driver folds each maximal run of bounded integer variables into
one mixed-radix objective.  These tests pin that against asking about one
variable at a time — through the same loop with folding switched off
(``FOLD_LIMIT = 1``), through a reference that pins with equality *rows*,
and through the exact reference lexmin (``reference_lexmin.py``) — on
random models and on real level-0 scheduler models; and they pin where a
run must stop.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilp import HighsSession, ILPModel, LinearConstraint, lexmin
from repro.ilp.lexmin import FOLD_LIMIT, _fold
from repro.workloads import all_workloads
from tests.ilp.branch_bound import solve_ilp
from tests.ilp.reference_lexmin import reference_lexmin
from tests.ilp.test_warm_solver import _level0_model

#: the module, not the function of the same name ``repro.ilp`` re-exports
lexmin_module = sys.modules["repro.ilp.lexmin"]


def _with_rows(model: ILPModel, rows) -> ILPModel:
    """``model`` with ``rows`` appended to its constraints."""
    out = model.clone()
    out.constraints += rows
    return out


def _solve_highs(model, objective, extra=()):
    """One HiGHS solve with ``solve_ilp``'s signature."""
    return HighsSession(_with_rows(model, extra)).solve(objective)


def _one_at_a_time(model: ILPModel, solver) -> list[Fraction]:
    """Lexmin by the textbook reduction: one variable per solve, every
    optimum pinned by an appended equality row."""
    fixings: list[LinearConstraint] = []
    values = []
    for name in model.objective_order:
        res = solver(model, {name: 1}, extra=tuple(fixings))
        assert res.is_optimal
        values.append(res.objective)
        fixings.append(LinearConstraint({name: 1}, -res.objective, equality=True))
    return values


@st.composite
def bounded_models(draw):
    """Random bounded integer models, feasible by construction."""
    m = ILPModel()
    names = [f"v{i}" for i in range(draw(st.integers(2, 6)))]
    for name in names:
        m.add_variable(name, draw(st.integers(-4, 0)), draw(st.integers(1, 4)))
    witness = {
        n: draw(st.integers(m.variables[n].lower, m.variables[n].upper))
        for n in names
    }
    for _ in range(draw(st.integers(0, 6))):
        coeffs = {n: draw(st.integers(-3, 3)) for n in names if draw(st.booleans())}
        coeffs = {n: c for n, c in coeffs.items() if c}
        if coeffs:
            at = sum(c * witness[n] for n, c in coeffs.items())
            m.add_constraint(coeffs, -at + draw(st.integers(0, 2)))
    m.set_objective_order(draw(st.permutations(names)))
    return m


class TestFoldedAgreesWithSequential:
    @given(bounded_models())
    @settings(max_examples=60, deadline=None)
    def test_random_bounded_models(self, model):
        want = _one_at_a_time(model, solve_ilp)
        assert _one_at_a_time(model, _solve_highs) == want
        assert reference_lexmin(model).values == want
        res = lexmin(model)
        assert res.is_optimal and res.values == want
        assert model.check(res.assignment)
        assert res.solves <= 2  # at most 9**6 values: one fold, maybe two

    @pytest.mark.parametrize(
        "name", ["gemm", "jacobi-2d-imper", "fdtd-2d", "heat-1dp"]
    )
    def test_level0_scheduler_models(self, name, monkeypatch):
        (workload,) = [w for w in all_workloads() if w.name == name]
        model = _level0_model(workload)
        folded = lexmin(model)
        monkeypatch.setattr(lexmin_module, "FOLD_LIMIT", 1)
        single = lexmin(model)
        assert folded.is_optimal
        assert folded.values == single.values == reference_lexmin(model).values
        assert folded.solves < single.solves
        assert model.check(folded.assignment)


def _box_model(n) -> ILPModel:
    m = ILPModel()
    for i in range(n):
        m.add_variable(f"x{i}", -4, 4)
    # sum >= 3 with x0 <= x1 <= ...: the lexmin is not all-lower-bounds
    m.add_constraint({f"x{i}": 1 for i in range(n)}, -3)
    for i in range(n - 1):
        m.add_constraint({f"x{i}": -1, f"x{i + 1}": 1}, 0)
    m.set_objective_order([f"x{i}" for i in range(n)])
    return m


class TestWhereARunStops:
    def test_weights_are_the_mixed_radix_place_values(self):
        m = ILPModel()
        m.add_variable("s", 0, 12)
        for name in "abc":
            m.add_variable(name, -4, 4)
        order = ["s", "a", "b", "c"]
        assert _fold(m, order, 0) == {"s": 729, "a": 81, "b": 9, "c": 1}
        assert _fold(m, order, 2) == {"b": 9, "c": 1}
        assert 13 * 9**3 == 9477 <= FOLD_LIMIT

    def test_run_wider_than_the_limit_splits_and_agrees(self):
        model = _box_model(8)
        order = model.objective_order
        first = _fold(model, order, 0)
        assert list(first) == order[:5]  # 9**5 <= 1e5 < 9**6
        assert first["x0"] * 9 <= FOLD_LIMIT
        assert list(_fold(model, order, 5)) == order[5:]
        want = _one_at_a_time(model, solve_ilp)
        res = lexmin(model)
        assert res.values == want == reference_lexmin(model).values
        assert res.solves == 2

    def test_a_four_deep_statement_splits(self):
        m = ILPModel()
        m.add_variable("csum", 0, 16)
        for i in range(4):
            m.add_variable(f"c{i}", -4, 4)
        order = ["csum", "c0", "c1", "c2", "c3"]
        assert list(_fold(m, order, 0)) == order[:4]

    @pytest.mark.parametrize(
        "kw", [dict(integer=False), dict(upper=None), dict(lower=None)]
    )
    def test_continuous_or_unbounded_variable_is_not_folded(self, kw):
        m = ILPModel()
        m.add_variable("a", 0, 3)
        m.add_variable("b", **{"lower": 0, "upper": 3, **kw})
        m.add_variable("c", 0, 3)
        order = ["a", "b", "c"]
        assert _fold(m, order, 0) == {"a": 1}
        assert _fold(m, order, 1) == {"b": 1}
        assert _fold(m, order, 2) == {"c": 1}

    def test_unbounded_objective_variable_still_solves(self):
        m = ILPModel()
        m.add_variable("u", lower=0)  # no upper bound: never folded
        m.add_variable("x", 0, 3)
        m.add_variable("y", 0, 3)
        m.add_constraint({"u": 1, "x": 1, "y": 1}, -5)
        m.set_objective_order(["u", "x", "y"])
        assert lexmin(m).values == reference_lexmin(m).values == [0, 2, 3]


class TestSession:
    def test_pins_as_bounds_equal_pins_as_rows(self):
        model = _box_model(4)
        session = HighsSession(model)
        rows = []
        for name, value in [("x0", 0), ("x1", 1)]:
            session.pin(name, Fraction(value))
            rows.append(LinearConstraint({name: 1}, -value, equality=True))
            for objective in ({"x2": 1}, {"x3": 1}, {"x2": 9, "x3": 1}):
                a = session.solve(objective)
                b = HighsSession(_with_rows(model, rows)).solve(objective)
                assert (a.status, a.objective) == (b.status, b.objective)
        session.pin("x2", Fraction(-4))  # x2 >= x1 = 1 now fails
        assert not session.solve({"x3": 1}).is_optimal

    def test_the_whole_model_retry_honours_the_pins(self, monkeypatch):
        """A restricted point that fails verification is asked again of the
        whole model with the session's pins as bounds, not without them."""
        import numpy as np

        from repro.ilp import highs_backend

        model = _box_model(3)
        model.add_variable("z", 0, 4)
        model.add_constraint({"z": 1}, -2)  # z >= 2, a block of its own
        session = HighsSession(model)
        session.pin("x0", Fraction(1))
        at = {"x0": Fraction(1), "x1": Fraction(1), "x2": Fraction(1), "z": Fraction(4)}
        real, sent = highs_backend.highs, []

        def restricted_off_by_a_row(c, *args, **kwargs):
            res = real(c, *args, **kwargs)
            sent.append(len(c))
            if len(c) == 1:
                res = res._replace(x=np.zeros_like(res.x))  # violates z >= 2
            return res

        monkeypatch.setattr(highs_backend, "highs", restricted_off_by_a_row)
        got = session.solve({"z": 1}, at=at)
        assert sent == [1, 4]  # z's block, then the whole model
        assert got.is_optimal and got.assignment["z"] == 2
        assert got.assignment["x0"] == 1 and model.check(got.assignment)

    def test_satisfies_is_the_models_exact_check(self):
        model = _box_model(3)
        session = HighsSession(model)
        good = {"x0": Fraction(1), "x1": Fraction(1), "x2": Fraction(1)}
        assert session.satisfies(good) and model.check(good)
        for bad in (
            {**good, "x0": Fraction(2)},     # breaks x0 <= x1
            {**good, "x2": Fraction(5)},     # above its bound
            {**good, "x0": Fraction(0)},     # sum < 3
        ):
            assert not session.satisfies(bad) and not model.check(bad)
        assert not session.satisfies({**good, "x1": Fraction(3, 2)})
        session.pin("x0", Fraction(0))
        assert not session.satisfies(good)  # pins are bounds

    def test_fractional_rows_are_scaled_not_rounded(self):
        m = ILPModel()
        m.add_variable("x", 0, 10)
        m.add_constraint({"x": Fraction(1, 2)}, Fraction(-3, 2))  # x/2 >= 3/2
        session = HighsSession(m)
        assert session.solve({"x": 1}).objective == 3
        assert session.satisfies({"x": Fraction(3)})
        assert not session.satisfies({"x": Fraction(2)})
