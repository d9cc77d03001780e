"""Solver baseline: exact-backend auto-transformation time, corpus-gated.

Runs the full pipeline once per workload with ``--ilp-backend exact``
(integer-scaled warm-started simplex), checks each result against the
workload's exact cell in the golden corpus (``tests/golden/schedules.json``
— written with the seed solver still in place, so a match *is* seed
identity), and writes ``BENCH_solver.json`` with per-workload
auto-transformation times and their geometric mean.

The seed solver this used to race (dense Fraction tableau, cold lexmin
sequence, no row dedup or skeleton reuse; ``REPRO_EXACT_LEGACY=1``) is
deleted; its last measurement rides along as :data:`SEED_RECORD`, a frozen
record, so the artifact still shows the trajectory without a cross-machine
speedup gate.

The workload list is the Polybench subset on which the seed solver
terminated in minutes (the larger models took hours, which is why ``auto``
routes them to HiGHS).

Usage (from the repository root)::

    PYTHONPATH=src python -m benchmarks.solver_baseline [-o BENCH_solver.json]

Exits non-zero if any schedule differs from the corpus.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.pipeline import optimize
from repro.reporting import format_table, geomean
from tests.golden import EXACT_WORKLOADS, cell_specs, load_corpus, mismatch, summarize

#: The deleted seed solver stack as last measured (the checked-in
#: ``BENCH_solver.json`` of 43c1190); numbers from another machine, kept for
#: the record and never gated against.
SEED_RECORD = {
    "frozen": True,
    "stack": "dense Fraction tableau + cold lexmin sequence, no probe/"
             "row dedup/skeleton reuse (REPRO_EXACT_LEGACY=1; deleted)",
    "commit": "43c1190",
    "date": "2026-08-06",
    "auto_seconds": {
        "floyd-warshall": 7.569,
        "mvt": 7.410,
        "gemm": 23.596,
        "syrk": 20.105,
        "trisolv": 64.411,
        "lu": 167.478,
        "seidel-2d": 144.013,
    },
    "geomean_auto_seconds": 32.856,
    "geomean_speedup_then": 78.9,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default="BENCH_solver.json")
    args = parser.parse_args(argv)

    specs = cell_specs()
    golden = load_corpus()["cells"]
    entries = []
    reports = []
    for name in EXACT_WORKLOADS:
        cell_id = f"{name}--plutoplus@exact"
        workload, options = specs[cell_id]
        result = optimize(workload, options=options)
        report = mismatch(cell_id, golden[cell_id], summarize(result))
        if report:
            reports.append(report)
        entries.append(
            {
                "workload": name,
                "auto_seconds": result.timing.auto_transformation,
                "ilp_solve_seconds": result.timing.ilp_solve,
                "schedule_identical": report is None,
                "solver": result.scheduler_stats.solve.as_dict(),
            }
        )
        print(
            f"{name}: {result.timing.auto_transformation:.3f}s "
            f"(seed record {SEED_RECORD['auto_seconds'][name]:.1f}s)"
            f"{' MISMATCH' if report else ''}",
            flush=True,
        )

    g_new = geomean([e["auto_seconds"] for e in entries])
    out = {
        "backend": "exact",
        "algorithm": "plutoplus",
        "workloads": entries,
        "geomean_auto_seconds": g_new,
        "schedules_identical": not reports,
        "seed": SEED_RECORD,
    }
    with open(args.output, "w") as fh:
        json.dump(out, fh, indent=2)

    print("\nExact-solver auto-transformation time (seconds)")
    print(
        format_table(
            ["workload", "seed (frozen)", "now"],
            [
                [e["workload"], SEED_RECORD["auto_seconds"][e["workload"]],
                 e["auto_seconds"]]
                for e in entries
            ],
        )
    )
    print(f"  geomean: {g_new:.3f}s  (frozen seed record: "
          f"{SEED_RECORD['geomean_auto_seconds']:.3f}s at {SEED_RECORD['commit']})")
    print(f"  wrote {args.output}")

    for report in reports:
        print("\n" + report, file=sys.stderr)
    return 1 if reports else 0


if __name__ == "__main__":
    raise SystemExit(main())
