"""Unit and property tests for the lexmin driver and backend agreement."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilp import (
    HighsSession, ILPModel, ILPStatus, LinearConstraint, highs_backend, lexmin, solve_ilp,
)


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


def _two_blocks():
    """``b`` first, then two blocks that share no row but ``b``'s:
    lexmin ``(b, x0, y0, x1, y1) = (1, 2, 3, 2, 3)``.  No variable has an
    upper bound, so no objective folds and each is asked about alone."""
    m = ILPModel()
    for name in ("b", "x0", "y0", "x1", "y1"):
        m.add_variable(name)
    m.add_constraint({"b": 1}, -1)                 # b >= 1
    m.add_constraint({"x0": 1, "b": -1}, -1)       # x0 >= b + 1
    m.add_constraint({"x0": 1, "y0": 1}, -5)       # x0 + y0 >= 5
    m.add_constraint({"x1": 1, "b": 1}, -3)        # x1 >= 3 - b
    m.add_constraint({"y1": 1, "x1": -1}, -1)      # y1 >= x1 + 1
    m.set_objective_order(["b", "x0", "y0", "x1", "y1"])
    return m


@st.composite
def blocks_behind_a_bound(draw):
    """Random models of 2-3 blocks of integers that share no row, coupled
    only by a leading bound variable ``b``, feasible by construction.  Every
    variable is in the order (so the lexmin is one vector); a variable
    without an upper bound is asked about alone, so the later steps ask
    about one block at a time."""
    m = ILPModel()
    m.add_variable("b", 0, None)
    witness = {"b": draw(st.integers(0, 4))}
    names = []
    for k in range(draw(st.integers(2, 3))):
        block = [f"x{k}_{i}" for i in range(draw(st.integers(1, 3)))]
        for name in block:
            lower = draw(st.integers(-3, 0))
            upper = draw(st.one_of(st.none(), st.integers(1, 4)))
            m.add_variable(name, lower, upper)
            witness[name] = draw(st.integers(lower, 4 if upper is None else upper))
        for _ in range(draw(st.integers(1, 4))):
            coeffs = {n: draw(st.integers(-3, 3)) for n in ["b", *block] if draw(st.booleans())}
            coeffs = {n: c for n, c in coeffs.items() if c}
            if coeffs:
                at = sum(c * witness[n] for n, c in coeffs.items())
                m.add_constraint(coeffs, -at + draw(st.integers(0, 2)))
        names += block
    m.set_objective_order(["b", *draw(st.permutations(names))])
    return m


class TestComponentSteps:
    """After its first solve ``lexmin`` asks HiGHS about the
    objective's component only, every other column held at its value."""

    @given(blocks_behind_a_bound())
    @settings(max_examples=60, deadline=None)
    def test_highs_agrees_with_exact_on_every_variable(self, m):
        exact = lexmin(m, backend="exact")
        fast = lexmin(m, backend="highs")
        assert exact.status == fast.status == ILPStatus.OPTIMAL
        assert fast.assignment == exact.assignment
        assert m.check(fast.assignment)

    def test_later_steps_hand_over_fewer_columns(self, monkeypatch):
        real, sent = highs_backend.highs, []

        def spy(c, *args, **kwargs):
            sent.append(len(c))
            return real(c, *args, **kwargs)

        monkeypatch.setattr(highs_backend, "highs", spy)
        m = _two_blocks()
        res = lexmin(m)
        assert res.values == [1, 2, 3, 2, 3]
        # x0 and y0 are asked over their block; once it is pinned, the other
        # block is every free column, and the whole model is handed over
        assert sent == [m.num_variables, 2, 1, m.num_variables, m.num_variables]

    def test_a_failed_restricted_point_goes_to_the_exact_solver(self, monkeypatch):
        """The restricted entry answers a point that violates ``x0 >= b + 1``:
        the exact solver decides, over the whole model with the pins."""
        m = _two_blocks()
        session = HighsSession(m)
        first = session.solve({"b": 1})
        session.pin("b", first.assignment["b"])
        real, sent = highs_backend.highs, []

        def off_by_a_row(c, *args, **kwargs):
            res = real(c, *args, **kwargs)
            sent.append(len(c))
            return res._replace(x=np.zeros_like(res.x))

        monkeypatch.setattr(highs_backend, "highs", off_by_a_row)
        got = session.solve({"x0": 1}, at=first.assignment)
        assert sent == [2]  # one entry, over x0's block only
        pin = LinearConstraint({"b": 1}, -first.assignment["b"], equality=True)
        want = solve_ilp(m, {"x0": 1}, (pin,))
        assert (got.status, got.objective, got.assignment) == (
            want.status, want.objective, want.assignment
        )
        assert got.is_optimal and got.objective == 2
