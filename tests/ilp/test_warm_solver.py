"""Backend agreement, engine agreement, and auto-threshold tests.

Three concerns around the exact solver:

* ``pick_backend("auto")`` must gate on *both* the variable and the
  constraint count (the simplex cost grows with the row count too);
* the integer-scaled tableau must agree with the dense ``Fraction``
  oracle (``tests/ilp/reference_lp.py``) on random feasible LPs (property
  test);
* the exact backend (one warm tableau across the objective sequence) must
  produce the same lexicographic optimum as HiGHS (one cold solve per
  objective) — two independent solvers driven by the one lexmin loop — on
  every Polybench and periodic scheduler model the exact backend finishes
  in about a second; the rest assert the auto routing that shields them.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import PlutoScheduler
from repro.core.transform import Schedule
from repro.deps import DependenceGraph, compute_dependences
from repro.ilp import (
    AUTO_CONSTRAINT_THRESHOLD,
    AUTO_THRESHOLD,
    ILPModel,
    IncrementalLP,
    lexmin,
    pick_backend,
    solve_lp,
)
from repro.workloads import all_workloads
from tests.ilp.reference_lp import solve_lp_fraction

#: warm exact lexmin stays around a second up to this many constraints — well
#: past ``AUTO_CONSTRAINT_THRESHOLD``, so everything ``auto`` routes to the
#: exact backend is compared
_EXACT_LIMIT = 150


def _model_with(nvars: int, ncons: int) -> ILPModel:
    m = ILPModel()
    for i in range(nvars):
        m.add_variable(f"x{i}", lower=0, upper=3)
    for _ in range(ncons):
        m.add_constraint({"x0": 1}, 0)
    m.set_objective_order(["x0"])
    return m


class TestAutoThresholds:
    def test_variable_threshold(self):
        m = _model_with(5, 2)
        kw = dict(auto_threshold=5, auto_constraint_threshold=100)
        assert pick_backend(m, "auto", **kw)[1] == "exact"
        assert pick_backend(_model_with(6, 2), "auto", **kw)[1] == "highs"

    def test_constraint_threshold(self):
        kw = dict(auto_threshold=100, auto_constraint_threshold=4)
        assert pick_backend(_model_with(3, 4), "auto", **kw)[1] == "exact"
        assert pick_backend(_model_with(3, 5), "auto", **kw)[1] == "highs"

    def test_default_thresholds(self):
        small = _model_with(3, 2)
        assert pick_backend(small, "auto")[1] == "exact"
        wide = _model_with(AUTO_THRESHOLD + 1, 2)
        assert pick_backend(wide, "auto")[1] == "highs"
        tall = _model_with(3, AUTO_CONSTRAINT_THRESHOLD + 1)
        assert pick_backend(tall, "auto")[1] == "highs"

    def test_explicit_backend_ignores_size(self):
        wide = _model_with(AUTO_THRESHOLD + 1, 2)
        assert pick_backend(wide, "exact")[1] == "exact"
        assert pick_backend(_model_with(2, 1), "highs")[1] == "highs"


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
# Exact (warm) vs HiGHS (cold) lexmin on the Polybench / periodic models
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
    """Exact (warm tableau) vs HiGHS (cold solves) through the one lexmin
    loop.  The id predates the removal of the exact backend's own cold
    sequence and is kept so the per-workload test ids stay stable."""
    model = _level0_model(workload)
    if model.num_variables > AUTO_THRESHOLD or model.num_constraints > _EXACT_LIMIT:
        # Too slow for the pure-Python simplex: ``auto`` must route to HiGHS,
        # which is the property that keeps the pipeline fast here.
        assert pick_backend(model, "auto")[1] == "highs"
        return
    exact = lexmin(model, backend="exact")
    highs = lexmin(model, backend="highs")
    assert exact.is_optimal and highs.is_optimal
    assert (exact.backend, highs.backend) == ("exact", "highs")
    assert exact.values == highs.values
    for name in model.objective_order:
        assert exact.assignment[name] == highs.assignment[name]
    assert model.check(exact.assignment)
    assert model.check(highs.assignment)
