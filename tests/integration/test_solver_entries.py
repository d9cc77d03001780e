"""How often a cold compile enters ``scipy.optimize``: counted, not timed.

Each entry costs 1.5-4 ms of scipy wrapper around microseconds of HiGHS, so
the entry count *is* the cold-compile cost of the scheduler — and unlike a
timing it repeats exactly, on any machine.  The all-LP pruning sweep and
the one-variable-per-solve lexmin made 90 / 364 / 698 entries on these
three kernels; the row rules, the prune memo and radix-folded objectives
make 27 / 81 / 177.  The ceilings sit between the two, so either
optimisation falling out fails here, whatever the clock says.
"""

import pytest
from scipy import optimize as scipy_optimize

from repro.api import optimize, verify
from repro.polyhedra.cache import global_cache
from repro.workloads import get_workload


@pytest.mark.parametrize(
    "name, ceiling", [("gemm", 40), ("jacobi-2d-imper", 120), ("fdtd-2d", 250)]
)
def test_cold_compile_solver_entries(name, ceiling, monkeypatch):
    entries = {"linprog": 0, "milp": 0}

    def counting(fn_name):
        real = getattr(scipy_optimize, fn_name)

        def wrapper(*args, **kwargs):
            entries[fn_name] += 1
            return real(*args, **kwargs)

        return wrapper

    for fn_name in entries:
        monkeypatch.setattr(scipy_optimize, fn_name, counting(fn_name))
    workload = get_workload(name)
    program = workload.program()
    global_cache().clear()
    before = global_cache().stats.snapshot()
    result = optimize(program, workload.pipeline_options("plutoplus"))
    counted = dict(entries)  # verify() below solves too
    assert verify(result).legal
    assert 0 < sum(counted.values()) <= ceiling, counted
    # pruning's share of the LPs is visible in the stats, not only here
    delta = global_cache().stats.delta_since(before)
    assert 0 < delta.prune_lp_solves <= counted["linprog"]
    assert delta.prune_rule_rows > 0 and delta.prune_lookups > delta.prune_hits
