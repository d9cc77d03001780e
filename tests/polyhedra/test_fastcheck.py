"""Tests for the fast LP feasibility pre-filter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilp import ILPStatus
from repro.polyhedra import BasicSet, Space, eq, ineq
from repro.polyhedra.fastcheck import lp_feasible


@pytest.fixture
def sp():
    return Space(("x", "y"), ("N",))


class TestLpFeasible:
    def test_universe_feasible(self, sp):
        assert lp_feasible(BasicSet(sp))

    def test_contradiction_infeasible(self, sp):
        s = BasicSet(sp)
        s.add(ineq(sp, {"x": 1}, 0))
        s.add(ineq(sp, {"x": -1}, -1))
        assert not lp_feasible(s)

    def test_rational_point_feasible(self, sp):
        # 2x == 1: the rational point 1/2 exists (equalities with a constant
        # not divisible by the coefficient gcd are kept un-normalized)
        s = BasicSet(sp)
        s.add(eq(sp, {"x": 2}, -1))
        assert lp_feasible(s)

    def test_equality_handled(self, sp):
        s = BasicSet(sp)
        s.add(eq(sp, {"x": 1, "y": -1}))
        s.add(ineq(sp, {"x": 1}, -3))
        assert lp_feasible(s)

    def test_undecided_is_not_infeasible(self, sp, monkeypatch):
        """HiGHS status 4 ("unbounded or infeasible") and 1 (work limit)
        decide nothing: the set is not read as empty, the exact check runs."""
        from types import SimpleNamespace

        from repro.polyhedra import fastcheck
        from repro.polyhedra.cache import cache_disabled, global_cache

        s = BasicSet.from_bounds(sp, {"x": (0, 5)})
        hole = BasicSet(sp)
        hole.add(eq(sp, {"x": 2, "y": 2}, -1))  # 2x + 2y == 1: integer-empty
        hole.add(ineq(sp, {"x": 1, "y": -1}))
        for status in (4, 1):
            monkeypatch.setattr(
                fastcheck, "_lp_solve", lambda *a: SimpleNamespace(status=status, x=None)
            )
            assert lp_feasible(s) and lp_feasible(hole)
            global_cache().clear()
            assert not s.copy().is_empty()
            with cache_disabled():
                assert not s.copy().is_empty()
                assert hole.copy().is_empty()  # decided by the exact check


class TestSetIsEmpty:
    def test_agrees_with_exact_on_integer_gap(self, sp):
        s = BasicSet(sp)
        s.add(eq(sp, {"x": 2}, -1))  # 2x == 1: rational only
        assert lp_feasible(s)        # the fast filter cannot decide this
        assert s.is_empty()          # the exact fallback does

    def test_nonempty(self, sp):
        s = BasicSet.from_bounds(sp, {"x": (0, 5)})
        assert not s.is_empty()

    def test_syntactic_contradiction_short_circuit(self, sp):
        s = BasicSet(sp)
        s.add(ineq(sp, {}, -2))
        assert s.is_empty()

    @given(
        st.lists(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-4, 4)),
            min_size=0,
            max_size=4,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_exact_emptiness(self, rows):
        sp = Space(("x", "y"))
        s = BasicSet(sp)
        s.add(ineq(sp, {"x": 1}, 4))
        s.add(ineq(sp, {"x": -1}, 4))
        s.add(ineq(sp, {"y": 1}, 4))
        s.add(ineq(sp, {"y": -1}, 4))
        for a, b, c in rows:
            s.add(ineq(sp, {"x": a, "y": b}, c))
        assert s.is_empty() == (s._solve()[0] == ILPStatus.INFEASIBLE)
