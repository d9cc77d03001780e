"""Count entries into HiGHS on a cold polybench sweep.

Every entry goes through ``repro.ilp.highs_backend.highs``, the one door,
and is counted and timed there.  What one costs depends on its kind, so the
table is split three ways: an LP (emptiness, feasibility, a pruning block)
is ~0.5 ms; a MIP that presolve finishes ~0.7 ms; a MIP that reaches the
search ~2.4 ms (through ``scipy.optimize.milp``, until v1.19.0, each paid
0.5–0.9 ms more of scipy's wrapper; until v1.22.0, with a new HiGHS per
entry and every lexmin step over the whole model, 0.5 / 0.9 / 2.9 ms).
What an entry asks is counted in columns too: since v1.22.0 a lexmin step
after the first hands over only its objective's component, and the
sweep's MIP entries carry 15 082 columns where they carried 37 185.  The "~6 ms of native HiGHS" this
docstring once quoted for a lexmin MIP was 4.8 ms of feasibility-jump
heuristic in front of a dozen-column model (a searched MIP cost ~10 ms
then); the door switches it off.  Pruning entries come from Farkas only on
these kernels (``farkas._pruned_rows`` and ``cone`` above 80 rows): the
code generator's projections are one history-tracked chain per statement
(``project_lookups``; a hit is a statement whose scan system recurred) and
decide redundancy from ancestry, so emission enters HiGHS 0 times where
heat-2dp's used to make 56 of its 231 entries.  Either way the entry count
is the cold-compile cost of the scheduler in a unit that repeats exactly on
any machine.  The sweep is ``polybench-compile``'s: all 27 registered kernels,
``plutoplus`` options, PolyCache cleared before each.

Usage (from the repository root)::

    PYTHONPATH=src python -m benchmarks.solver_entries [kernel ...]

Prints one row per kernel (seconds, entries, columns handed over in all and
in MIP entries; slowest first), the totals,
``ms/entry`` by kind, and the PolyCache's pruning, projection, cone and rule
counters (a ``cone`` miss is one Farkas multiplier elimination).  Kernel names
are looked up across all categories, so ``heat-2dp`` works too.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.api import optimize
from repro.ilp import highs_backend
from repro.polyhedra.cache import global_cache
from repro.workloads import all_workloads, get_workload

KINDS = ("LP", "presolved MIP", "searched MIP")


def main(argv=None) -> int:
    wanted = list(sys.argv[1:] if argv is None else argv)
    entries = columns = mip_columns = 0
    kinds = {kind: [0, 0.0] for kind in KINDS}  # kind -> [entries, seconds]
    real = highs_backend.highs

    def counting(c, a, lo, hi, lb=-np.inf, ub=np.inf, integral=False, **options):
        nonlocal entries, columns, mip_columns
        entries += 1
        columns += len(c)
        mip = np.any(integral)
        mip_columns += len(c) if mip else 0
        t0 = time.perf_counter()
        res = real(c, a, lo, hi, lb, ub, integral, **options)
        # HiGHS counts the nodes it searched: none when presolve finished the MIP
        kind = KINDS[bool(res.mip_node_count) + 1 if mip else 0]
        kinds[kind][0] += 1
        kinds[kind][1] += time.perf_counter() - t0
        return res

    workloads = [get_workload(n) for n in wanted] or all_workloads("polybench")
    programs = {w.name: w.program() for w in workloads}
    counters = global_cache().stats.snapshot()
    rows = []
    highs_backend.highs = counting
    try:
        for w in workloads:
            global_cache().clear()
            before = entries, columns, mip_columns
            t0 = time.perf_counter()
            optimize(programs[w.name], w.pipeline_options("plutoplus"))
            after = entries, columns, mip_columns
            rows.append((
                time.perf_counter() - t0, w.name,
                *(now - then for now, then in zip(after, before)),
            ))
    finally:
        highs_backend.highs = real

    header = ("seconds", "entries", "columns", "MIP cols")
    print(f"{'kernel':<20}" + "".join(f" {h:>8}" for h in header))
    for seconds, name, *counts in sorted(rows, reverse=True):
        print(f"{name:<20} {seconds:>8.3f}" + "".join(f" {n:>8}" for n in counts))
    print(f"{'total':<20} {sum(r[0] for r in rows):>8.3f}"
          f" {entries:>8} {columns:>8} {mip_columns:>8}")
    print(f"{'kind':<20} {'seconds':>8} {'entries':>8} {'ms/entry':>9}")
    for kind, (count, seconds) in kinds.items():
        print(f"{kind:<20} {seconds:>8.3f} {count:>8} {1e3 * seconds / max(count, 1):>9.2f}")
    delta = global_cache().stats.delta_since(counters).as_dict()
    shown = ("prune_", "project_", "cone_", "min_by_rule", "fast_rejects")
    print("counters:", {k: v for k, v in delta.items() if k.startswith(shown)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
