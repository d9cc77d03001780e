"""How often a cold compile enters HiGHS: counted, not timed.

Every entry goes through ``repro.ilp.highs_backend.highs``, the one door,
and is counted there (``scipy.optimize.milp`` and ``linprog`` must never be
entered).  What an entry costs depends on what it asks (cold polybench
sweep, scipy 1.17.1 / HiGHS 1.12.0, ``python -m benchmarks.solver_entries``):
an LP — emptiness, a pruning block — ~0.5 ms; a MIP that presolve finishes
(most ``min_of`` questions, 233 of the 563 lexmin MIPs) ~0.9 ms; a MIP that
reaches the search ~3 ms.  Through ``optimize.milp`` each paid 0.5–0.9 ms
more of scipy's wrapper (1.0 / 1.8 / 3.7 ms).  The "~6 ms of native HiGHS" this
docstring used to quote for a lexmin MIP was not search: 4.8 ms of it was
the feasibility-jump heuristic, a fixed cost in front of models presolve had
already cut to a dozen columns (a searched MIP cost ~10 ms then), which the
door now switches off.  Either way the count repeats exactly, on any
machine, which a timing does not.

The all-LP pruning sweep and the one-variable-per-solve lexmin made
90 / 364 / 698 entries on the three polybench kernels below; the row rules,
the prune memo and radix-folded objectives made 27 / 81 / 177; answering
``min_of`` and emptiness from the equality-reduced form and batching the
pruning LPs makes 19 / 48 / 91.  On the periodic kernels the same three
steps took heat-1dp 120 -> 57 and heat-2dp 1 299 -> 231 (pruning entries
967 -> 128); the scan's history-tracked projection chain, which decides
redundancy from each row's ancestry, takes heat-2dp to 175 (pruning entries
72, all of them Farkas' now: emitting Python and C for any of the five adds
none).  Each ceiling sits between the last two readings, so any one
optimisation falling out fails here, whatever the clock says.

Farkas multiplier eliminations are counted the same way: a ``cone`` lookup
that misses is one elimination.  Legality and bounding of a dependence share
one, so at least half the lookups must hit (gemm 5 of 6, jacobi-2d 30 of 40,
fdtd-2d 55 of 74, heat-1dp 10 of 20, heat-2dp 36 of 72).
"""

import pytest
from scipy import optimize as scipy_optimize

from repro.api import optimize, verify
from repro.codegen import generate_c_kernel, generate_python
from repro.ilp import highs_backend
from repro.polyhedra.cache import global_cache
from repro.workloads import get_workload


#: kernel -> (ceiling on entries, ceiling on pruning entries).  Keyed by name
#: so a refreshed ceiling does not rename the test.
CEILINGS = {
    "gemm": (24, 4),              # pruning entries 6 -> 2
    "jacobi-2d-imper": (65, 27),  # 35 -> 19
    "fdtd-2d": (130, 60),         # 95 -> 35
    "heat-1dp": (90, 25),         # 33 -> 18
    "heat-2dp": (200, 100),       # 128 -> 72 (entries 231 -> 175)
}


@pytest.mark.parametrize("name", CEILINGS)
def test_cold_compile_solver_entries(name, monkeypatch):
    ceiling, prune_ceiling = CEILINGS[name]
    entries = 0
    real = highs_backend.highs

    def counting(*args, **kwargs):
        nonlocal entries
        entries += 1
        return real(*args, **kwargs)

    def never(*args, **kwargs):
        raise AssertionError("scipy.optimize entered: highs_backend.highs is the one door")

    monkeypatch.setattr(highs_backend, "highs", counting)
    monkeypatch.setattr(scipy_optimize, "milp", never)
    monkeypatch.setattr(scipy_optimize, "linprog", never)
    workload = get_workload(name)
    program = workload.program()
    global_cache().clear()
    before = global_cache().stats.snapshot()
    result = optimize(program, workload.pipeline_options("plutoplus"))
    counted = entries  # verify() below solves too
    assert verify(result).legal
    assert 0 < counted <= ceiling
    # pruning's share of the entries is visible in the stats, not only here
    delta = global_cache().stats.delta_since(before)
    assert 0 < delta.prune_lp_solves <= min(counted, prune_ceiling)
    assert delta.prune_rule_rows > 0 and delta.prune_lookups > delta.prune_hits
    assert delta.min_by_rule > 0
    # legality + bounding substitute into one multiplier elimination
    assert 0 < delta.cone_lookups <= 2 * delta.cone_hits
    # the emitters' projections are pruned by ancestry, never by an LP
    global_cache().clear()
    before = global_cache().stats.snapshot()
    generate_python(result.tiled)
    generate_c_kernel(result.tiled)
    assert global_cache().stats.delta_since(before).prune_lp_solves == 0
