"""One workload in one fresh process (spawned by :mod:`benchmarks.e2e.cli`).

Writes a single JSON record: the metrics the workload measured, its
operation counts, the report lines and the recorded environment.  A
non-zero exit means the harness itself broke (including a staged driver
that drifted from ``optimize()``); failed *operations* are only counted.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path

from benchmarks.e2e.env import environment_record, pin
from benchmarks.e2e.harness import Context

#: workload name -> (module, cpus it pins itself to, given nproc).  In-process
#: compile workloads sit on the last CPU; the native workload needs both
#: thread counts; the daemon workload pins harness and daemon itself.
WORKLOADS = {
    "periodic-native": ("periodic_native", lambda n: set(range(n))),
    "polybench-compile": ("polybench_compile", lambda n: {n - 1}),
    "recompile-warm": ("recompile_warm", lambda n: {n - 1}),
    "daemon-mixed": ("daemon_mixed", lambda n: {n - 1}),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, required=True)
    ap.add_argument("--check", type=int, required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path, required=True)
    args = ap.parse_args(argv)

    module_name, cpus = WORKLOADS[args.workload]
    affinity = pin(cpus(os.cpu_count() or 1))
    ctx = Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), check=bool(args.check), tmp=args.tmp,
        t_spawn=args.t_spawn,
    )
    module = importlib.import_module(f"benchmarks.e2e.{module_name}")
    metrics, report = module.run(ctx)
    if ctx.setup_s is None:
        raise RuntimeError(f"{args.workload} never called ctx.setup_done()")
    metrics["setup_s"] = ctx.setup_s

    environment = environment_record(args.seed)
    environment["pinned"] = affinity is not None
    if ctx.tracer is not None:
        ctx.tracer.write(
            args.spans, workload=args.workload, seed=args.seed,
            clock="time.perf_counter() seconds",
        )
        report += _layer_table(ctx.tracer)
    args.result.write_text(json.dumps({
        "workload": args.workload,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "failures": ctx.failures,
        "metrics": metrics,
        "report": report,
        "environment": environment,
    }))
    return 0


def _layer_table(tracer) -> list[str]:
    lines = ["span                       count    total_s     self_s"]
    for name, row in sorted(
        tracer.totals().items(), key=lambda kv: -kv[1]["self"]
    ):
        lines.append(
            f"{name:<25} {row['count']:>6} {row['total']:>10.4f} {row['self']:>10.4f}"
        )
    return lines


if __name__ == "__main__":
    sys.exit(main())
