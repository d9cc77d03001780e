"""Unit and property tests for the lexmin driver, its agreement with the
exact reference, and what a point HiGHS gets wrong leads to."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilp import (
    HighsSession, ILPModel, ILPStatus, SolverError, highs_backend, lexmin,
)
from repro.polyhedra import BasicSet, Space, ineq
from repro.polyhedra.cache import cache_disabled, global_cache
from tests.ilp.branch_bound import solve_ilp
from tests.ilp.reference_lexmin import reference_lexmin


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
        res = lexmin(m)
        assert res.is_optimal
        # u minimized first: u >= w - 2 and u + w >= 3 -> min u is ceil(1/2)=1? u=w-2,u+w=3 -> u=1/2 -> integer: u=1,w=2
        assert res.assignment["u"] == 1
        assert res.assignment["w"] == 2
        assert res.values == [1, 2]

    def test_reverse_order_changes_solution(self):
        m = _chain_model()
        m.set_objective_order(["w", "u"])
        res = lexmin(m)
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
        res = lexmin(m)
        assert res.status == ILPStatus.INFEASIBLE

    def test_unbounded(self):
        m = ILPModel()
        m.add_variable("x", lower=None)
        m.set_objective_order(["x"])
        res = lexmin(m)
        assert res.status == ILPStatus.UNBOUNDED

    def test_lower_bound_shortcut_skips_solves(self):
        m = ILPModel()
        for i in range(5):
            m.add_variable(f"x{i}", lower=0)  # no upper bound: nothing folds
        m.add_constraint({"x0": 1}, -1)  # only x0 is pushed off its bound
        m.set_objective_order([f"x{i}" for i in range(5)])
        res = lexmin(m)
        assert res.is_optimal
        assert res.solves == 1  # x1..x4 resolved by the lower-bound shortcut
        assert res.stats.shortcut_hits + res.stats.probe_hits >= 1
        assert [int(v) for v in res.values] == [1, 0, 0, 0, 0]

    def test_highs_backend_agrees(self):
        m = _chain_model()
        exact = reference_lexmin(m)
        fast = lexmin(m)
        assert exact.values == fast.values

    def test_result_satisfies_model(self):
        m = _chain_model()
        res = lexmin(m)
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


def _zero_every_point(monkeypatch):
    """Stub the door so every point it returns is the zero vector; the
    statuses it saw are returned, one per entry."""
    real, statuses = highs_backend.highs, []

    def zeroed(*args, **kwargs):
        res = real(*args, **kwargs)
        statuses.append(res.status)
        return res._replace(x=np.zeros_like(res.x))

    monkeypatch.setattr(highs_backend, "highs", zeroed)
    return statuses


def _above_three():
    """``x + y >= 3`` in a box: the zero point violates it."""
    m = ILPModel()
    m.add_variable("x", lower=0, upper=10)
    m.add_variable("y", lower=0, upper=10)
    m.add_constraint({"x": 1, "y": 1}, -3)
    m.set_objective_order(["x", "y"])
    return m


class TestHighsVerification:
    """A HiGHS point that violates the model is not evidence of
    infeasibility: ``BasicSet.is_empty`` would drop a dependence.  A point
    that fails its check on the whole model raises :class:`SolverError`."""

    def test_a_point_that_fails_twice_raises_never_infeasible(self, monkeypatch):
        m = _above_three()
        statuses = _zero_every_point(monkeypatch)
        with pytest.raises(SolverError, match="fails the exact check") as err:
            HighsSession(m).solve({"x": 1, "y": 2})
        assert err.value.model is m and isinstance(err.value, RuntimeError)
        assert statuses == [0]  # the whole model was asked once, never the exact solver
        with pytest.raises(SolverError):
            lexmin(m)

    def test_a_failed_point_on_a_set_raises_rather_than_reads_empty(self, monkeypatch):
        sp = Space(("x", "y"), ())
        s = BasicSet(sp)
        s.add(ineq(sp, {"x": 1, "y": 1}, -3))   # x + y >= 3: 0 is outside
        s.add(ineq(sp, {"x": -1, "y": 1}, 1))   # y >= x - 1
        s.add(ineq(sp, {"x": 1, "y": -1}, 1))   # y <= x + 1
        assert s.contains({"x": 2, "y": 2})
        _zero_every_point(monkeypatch)
        with pytest.raises(SolverError) as err:
            s._solve()
        assert err.value.model.num_variables == 2
        global_cache().clear()
        for check in (s.is_empty, lambda: s.min_of(s.constraints[0].expr)):
            with pytest.raises(SolverError):
                check()
        with cache_disabled(), pytest.raises(SolverError):
            s.is_empty()

    def test_the_work_limit_reached_twice_raises(self, monkeypatch):
        asked = []

        def at_the_limit(c, a, lo, hi, lb, ub, integral, **options):
            asked.append(options["mip_max_nodes"])
            return highs_backend.HighsResult(1)

        monkeypatch.setattr(highs_backend, "highs", at_the_limit)
        limit = r"work limit \(10000000 nodes\) on a 1-row, 2-column"
        with pytest.raises(SolverError, match=limit):
            highs_backend.solve_rows(
                np.ones(2), np.ones((1, 2), dtype=np.int64), np.array([3]),
                np.array([False]), 0, 10, node_limit=100_000,
            )
        assert asked == [100_000, 10_000_000]


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
        exact = reference_lexmin(m)
        fast = lexmin(m)
        assert exact.status == fast.status
        if exact.is_optimal:
            assert exact.values == fast.values

    @given(random_ilp())
    @settings(max_examples=30, deadline=None)
    def test_lexmin_solution_feasible(self, m):
        res = lexmin(m)
        assert res.is_optimal  # constructed to be feasible
        assert m.check(res.assignment)

    @given(random_ilp())
    @settings(max_examples=30, deadline=None)
    def test_lexmin_first_component_is_global_min(self, m):
        res = lexmin(m)
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
        exact = reference_lexmin(m)
        fast = lexmin(m)
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

    def test_a_failed_restricted_point_is_asked_of_the_whole_model(self, monkeypatch):
        """The restricted entry answers a point that violates ``x0 >= b + 1``:
        the whole model, with the pins, is asked once more and answers."""
        m = _two_blocks()
        session = HighsSession(m)
        first = session.solve({"b": 1})
        session.pin("b", first.assignment["b"])
        real, sent = highs_backend.highs, []

        def restricted_off_by_a_row(c, *args, **kwargs):
            res = real(c, *args, **kwargs)
            sent.append(len(c))
            if len(c) < m.num_variables:
                res = res._replace(x=np.zeros_like(res.x))
            return res

        monkeypatch.setattr(highs_backend, "highs", restricted_off_by_a_row)
        got = session.solve({"x0": 1}, at=first.assignment)
        assert sent == [2, m.num_variables]  # x0's block, then the whole model
        m.set_objective_order(["b", "x0"])
        want = reference_lexmin(m)
        assert (got.status, got.objective) == (want.status, want.values[-1])
        assert got.assignment["b"] == first.assignment["b"] and m.check(got.assignment)
        assert got.is_optimal and got.objective == 2
