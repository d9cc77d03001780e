"""The exact solver as the reference HiGHS is checked against.

HiGHS answers every lexmin the pipeline asks; the exact solver
(``tests/ilp/simplex.py`` + ``branch_bound.py``) is the reference here, so
it must itself be right:

* the integer-scaled tableau must agree with the dense ``Fraction``
  oracle (``tests/ilp/reference_lp.py``) on random feasible LPs (property
  test);
* the reference lexmin (``reference_lexmin.py``: one warm tableau, one
  objective at a time) must produce the same lexicographic optimum as
  ``repro.ilp.lexmin`` on HiGHS — two independent solvers through two
  independent loops — on every Polybench and periodic level-0 scheduler
  model the reference finishes in about a second.  The larger models are
  checked against the model itself: the pure-Python simplex is too slow to
  be their reference.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import PlutoScheduler
from repro.core.transform import Schedule
from repro.deps import DependenceGraph, compute_dependences
from repro.ilp import ILPModel, lexmin
from repro.workloads import all_workloads
from tests.ilp.reference_lexmin import reference_lexmin
from tests.ilp.reference_lp import solve_lp_fraction
from tests.ilp.simplex import IncrementalLP, solve_lp

#: the reference lexmin stays around a second up to this many variables and
#: constraints; past either, the exact reference is not run
_EXACT_VARIABLES = 80
_EXACT_CONSTRAINTS = 150


# ---------------------------------------------------------------------------
# Integer-scaled engine vs the dense Fraction oracle
# ---------------------------------------------------------------------------


@st.composite
def random_lp(draw):
    """Random bounded LPs, feasible by construction (anchored on a witness)."""
    nvars = draw(st.integers(1, 4))
    m = ILPModel()
    names = []
    for i in range(nvars):
        lo = draw(st.integers(-3, 0))
        hi = draw(st.integers(1, 4))
        name = f"v{i}"
        m.add_variable(name, lower=lo, upper=hi)
        names.append(name)
    witness = {
        n: draw(st.integers(m.variables[n].lower, m.variables[n].upper))
        for n in names
    }
    for _ in range(draw(st.integers(0, 4))):
        coeffs = {
            n: draw(st.integers(-3, 3)) for n in names if draw(st.booleans())
        }
        coeffs = {n: c for n, c in coeffs.items() if c}
        if not coeffs:
            continue
        val = sum(c * witness[n] for n, c in coeffs.items())
        equality = draw(st.booleans())
        m.add_constraint(coeffs, -val, equality=equality)  # holds at witness
    objective = {n: draw(st.integers(-2, 2)) for n in names}
    return m, objective


class TestEngineAgreement:
    @given(random_lp())
    @settings(max_examples=60, deadline=None)
    def test_int_engine_matches_fraction_engine(self, case):
        model, objective = case
        fast = solve_lp(model, objective)
        ref = solve_lp_fraction(model, objective)
        assert fast.status == ref.status
        if ref.is_optimal:
            # the optimal *value* is unique even when the vertex is not
            assert fast.objective == ref.objective

    @given(random_lp())
    @settings(max_examples=40, deadline=None)
    def test_incremental_minimize_matches_fraction(self, case):
        model, objective = case
        inc = IncrementalLP(model)
        assert inc.is_feasible  # witness-anchored
        res = inc.minimize(objective)
        ref = solve_lp_fraction(model, objective)
        assert res.status == ref.status
        if ref.is_optimal:
            # the relaxation may sit on a fractional vertex, so only the
            # optimal value (unique) is compared, not the assignment
            assert res.objective == ref.objective

    @given(random_lp())
    @settings(max_examples=30, deadline=None)
    def test_snapshot_restore_roundtrip(self, case):
        model, objective = case
        inc = IncrementalLP(model)
        snap = inc.snapshot()
        before = inc.minimize(objective)
        first = model.var_names()[0]
        inc.fix(first, before.assignment[first])
        inc.restore(snap)
        after = inc.minimize(objective)
        assert after.status == before.status
        if before.is_optimal:
            assert after.objective == before.objective


# ---------------------------------------------------------------------------
# The exact reference lexmin vs HiGHS on the Polybench / periodic models
# ---------------------------------------------------------------------------


def _level0_model(workload) -> ILPModel:
    program = workload.program()
    ddg = DependenceGraph(program, compute_dependences(program))
    scheduler = PlutoScheduler(
        program, ddg, workload.pipeline_options("plutoplus").scheduler_options()
    )
    return scheduler.build_model(Schedule(program), list(ddg.deps))


_WORKLOADS = [
    w for w in all_workloads() if w.category in ("polybench", "periodic")
]


@pytest.mark.parametrize("workload", _WORKLOADS, ids=lambda w: w.name)
def test_warm_vs_cold_lexmin(workload):
    """The exact reference (warm tableau) vs HiGHS through the lexmin loop.
    The id predates the exact solver's move into the tests and is kept so the
    per-workload test ids stay stable."""
    model = _level0_model(workload)
    highs = lexmin(model)
    assert highs.is_optimal
    assert model.check(highs.assignment)
    if (model.num_variables > _EXACT_VARIABLES
            or model.num_constraints > _EXACT_CONSTRAINTS):
        return  # too slow for the pure-Python simplex to be the reference
    exact = reference_lexmin(model)
    assert exact.is_optimal
    assert exact.values == highs.values
    for name in model.objective_order:
        assert exact.assignment[name] == highs.assignment[name]
    assert model.check(exact.assignment)
