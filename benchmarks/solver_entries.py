"""Count entries into ``scipy.optimize`` on a cold polybench sweep.

Every ``linprog`` / ``milp`` call pays 1.5-4 ms of scipy wrapper around
microseconds of HiGHS on the 8-to-58-column systems this repository solves,
so the entry count is the cold-compile cost of the scheduler in a unit that
repeats exactly on any machine.  The sweep is ``polybench-compile``'s: all
27 registered kernels, ``plutoplus`` options, PolyCache cleared before each.

Usage (from the repository root)::

    PYTHONPATH=src python -m benchmarks.solver_entries [kernel ...]

Prints one row per kernel (seconds, ``linprog``, ``milp``, slowest first)
and the totals with the PolyCache's pruning counters beside them.
"""

from __future__ import annotations

import sys
import time

from scipy import optimize as scipy_optimize

from repro.api import optimize
from repro.polyhedra.cache import global_cache
from repro.workloads import all_workloads

ENTRIES = ("linprog", "milp")


def main(argv=None) -> int:
    wanted = list(sys.argv[1:] if argv is None else argv)
    counts = dict.fromkeys(ENTRIES, 0)

    def counting(name):
        real = getattr(scipy_optimize, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    workloads = [
        w for w in all_workloads("polybench") if not wanted or w.name in wanted
    ]
    programs = {w.name: w.program() for w in workloads}
    pruning = global_cache().stats.snapshot()
    rows = []
    originals = {name: getattr(scipy_optimize, name) for name in ENTRIES}
    try:
        for name in ENTRIES:
            setattr(scipy_optimize, name, counting(name))
        for w in workloads:
            global_cache().clear()
            before = dict(counts)
            t0 = time.perf_counter()
            optimize(programs[w.name], w.pipeline_options("plutoplus"))
            seconds = time.perf_counter() - t0
            rows.append((seconds, w.name, *(counts[n] - before[n] for n in ENTRIES)))
    finally:
        for name, real in originals.items():
            setattr(scipy_optimize, name, real)

    print(f"{'kernel':<20} {'seconds':>8} {'linprog':>8} {'milp':>6}")
    for seconds, name, linprog, milp in sorted(rows, reverse=True):
        print(f"{name:<20} {seconds:>8.3f} {linprog:>8} {milp:>6}")
    total = sum(counts.values())
    print(f"{'total':<20} {sum(r[0] for r in rows):>8.3f} "
          f"{counts['linprog']:>8} {counts['milp']:>6}   ({total} entries)")
    delta = global_cache().stats.delta_since(pruning).as_dict()
    print("pruning:", {k: v for k, v in delta.items() if k.startswith("prune_")})
    return 0


if __name__ == "__main__":
    sys.exit(main())
