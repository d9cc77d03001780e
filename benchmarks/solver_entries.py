"""Count entries into HiGHS on a cold polybench sweep.

Every entry goes through ``scipy.optimize.milp`` (the one door,
``repro.ilp.highs_backend.highs``).  The small questions — emptiness,
``min_of``, feasibility LPs, pruning blocks — cost ~0.9 ms of scipy wrapper
around a fraction of a millisecond of HiGHS each, the lexmin MIPs ~6 ms of
native HiGHS; either way the entry count is the cold-compile cost of the
scheduler in a unit that repeats exactly on any machine.  The sweep is
``polybench-compile``'s: all 27 registered kernels, ``plutoplus`` options,
PolyCache cleared before each.

Usage (from the repository root)::

    PYTHONPATH=src python -m benchmarks.solver_entries [kernel ...]

Prints one row per kernel (seconds, entries, slowest first) and the totals
with the PolyCache's pruning and rule counters beside them.  Kernel names
are looked up across all categories, so ``heat-2dp`` works too.
"""

from __future__ import annotations

import sys
import time

from scipy import optimize as scipy_optimize

from repro.api import optimize
from repro.polyhedra.cache import global_cache
from repro.workloads import all_workloads, get_workload


def main(argv=None) -> int:
    wanted = list(sys.argv[1:] if argv is None else argv)
    entries = 0
    real = scipy_optimize.milp

    def counting(*args, **kwargs):
        nonlocal entries
        entries += 1
        return real(*args, **kwargs)

    workloads = [get_workload(n) for n in wanted] or all_workloads("polybench")
    programs = {w.name: w.program() for w in workloads}
    counters = global_cache().stats.snapshot()
    rows = []
    scipy_optimize.milp = counting
    try:
        for w in workloads:
            global_cache().clear()
            before = entries
            t0 = time.perf_counter()
            optimize(programs[w.name], w.pipeline_options("plutoplus"))
            rows.append((time.perf_counter() - t0, w.name, entries - before))
    finally:
        scipy_optimize.milp = real

    print(f"{'kernel':<20} {'seconds':>8} {'entries':>8}")
    for seconds, name, count in sorted(rows, reverse=True):
        print(f"{name:<20} {seconds:>8.3f} {count:>8}")
    print(f"{'total':<20} {sum(r[0] for r in rows):>8.3f} {entries:>8}")
    delta = global_cache().stats.delta_since(counters).as_dict()
    shown = ("prune_", "min_by_rule", "fast_rejects")
    print("counters:", {k: v for k, v in delta.items() if k.startswith(shown)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
