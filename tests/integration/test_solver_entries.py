"""How often a cold compile enters HiGHS: counted, not timed.

Every entry goes through ``scipy.optimize.milp`` (``linprog`` must never be
entered: ``repro.ilp.highs_backend.highs`` is the one door).  What an entry
costs depends on what it asks.  The small questions — emptiness and
``min_of`` over a dependence polyhedron, a feasibility LP, a pruning block —
are ~0.9 ms of scipy wrapper around a fraction of a millisecond of HiGHS, so
for them the count *is* the cost; the scheduler's lexmin MIPs are the
opposite, ~6 ms of native HiGHS under ~1 ms of wrapper.  Either way the
count repeats exactly, on any machine, which a timing does not.

The all-LP pruning sweep and the one-variable-per-solve lexmin made
90 / 364 / 698 entries on the three polybench kernels below; the row rules,
the prune memo and radix-folded objectives made 27 / 81 / 177; answering
``min_of`` and emptiness from the equality-reduced form and batching the
pruning LPs makes 19 / 53 / 114.  On the periodic kernels the same three
steps took heat-1dp 120 -> 57 and heat-2dp 1 299 -> 231 (pruning entries
967 -> 128).  Each ceiling sits between the last two readings, so any one
optimisation falling out fails here, whatever the clock says.
"""

import pytest
from scipy import optimize as scipy_optimize

from repro.api import optimize, verify
from repro.polyhedra.cache import global_cache
from repro.workloads import get_workload


#: kernel -> (ceiling on entries, ceiling on pruning entries).  Keyed by name
#: so a refreshed ceiling does not rename the test.
CEILINGS = {
    "gemm": (24, 4),              # pruning entries 6 -> 2
    "jacobi-2d-imper": (70, 27),  # 35 -> 19
    "fdtd-2d": (150, 60),         # 95 -> 35
    "heat-1dp": (90, 25),         # 33 -> 18
    "heat-2dp": (420, 200),       # 967 -> 128
}


@pytest.mark.parametrize("name", CEILINGS)
def test_cold_compile_solver_entries(name, monkeypatch):
    ceiling, prune_ceiling = CEILINGS[name]
    entries = {"milp": 0}
    real = scipy_optimize.milp

    def counting(*args, **kwargs):
        entries["milp"] += 1
        return real(*args, **kwargs)

    def never(*args, **kwargs):
        raise AssertionError("linprog entered: milp is the one door")

    monkeypatch.setattr(scipy_optimize, "milp", counting)
    monkeypatch.setattr(scipy_optimize, "linprog", never)
    workload = get_workload(name)
    program = workload.program()
    global_cache().clear()
    before = global_cache().stats.snapshot()
    result = optimize(program, workload.pipeline_options("plutoplus"))
    counted = entries["milp"]  # verify() below solves too
    assert verify(result).legal
    assert 0 < counted <= ceiling
    # pruning's share of the entries is visible in the stats, not only here
    delta = global_cache().stats.delta_since(before)
    assert 0 < delta.prune_lp_solves <= min(counted, prune_ceiling)
    assert delta.prune_rule_rows > 0 and delta.prune_lookups > delta.prune_hits
    assert delta.min_by_rule > 0
