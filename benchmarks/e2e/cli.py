"""Parent process: one fresh child per workload, metrics out.

    python3 -m benchmarks.e2e                       # all workloads
    python3 -m benchmarks.e2e --workload daemon-mixed --seed 3 --trace 1
    python3 -m benchmarks.e2e --list
    python3 -m benchmarks.e2e --check               # tiny sizes, smoke

For every workload run, the last thing printed on standard output is one
JSON line ``{"correct", "attempted", "failed", "metrics"}``: the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  Tables and the environment go
to standard error.  Exit status is non-zero only when the harness itself
failed; failed operations are counted in the JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from benchmarks.e2e.env import BUILD_DIR, ROOT, RUN_SECONDS, child_env, clock


class HarnessError(RuntimeError):
    pass


#: end-to-end metrics reported in calibrated units, and the power of the
#: run's speed index they are multiplied by (times shrink, rates grow)
CALIBRATED = {"setup_s": -1, "wall_s": -1, "compile_s": -1, "request_rps": 1}


def load_spec() -> dict:
    """``BENCHMARK.json``: the one registry of workload and metric names."""
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError as e:
        raise HarnessError(f"cannot read BENCHMARK.json: {e}") from None


def list_names(spec: dict) -> str:
    lines = ["workloads:"]
    lines += [f"  {w['name']:<20} {w['why']}" for w in spec["workloads"]]
    lines.append("end-to-end metrics (name, unit, better, regression bound):")
    lines += [
        f"  {m['name']:<34} {m['unit']:<8} {m['better']:<7} {m['bound']}"
        for m in spec["end_to_end"]
    ]
    lines.append("per-layer metrics (name, unit, better):")
    lines += [
        f"  {m['name']:<34} {m['unit']:<8} {m['better']}"
        for m in spec["per_layer"]
    ]
    return "\n".join(lines)


def run_workload(name: str, args, out_dir: Path) -> dict:
    """Spawn the child, wait for it, and add what only the parent can see
    (``wall_s``, ``peak_rss_mb``)."""
    tmp_root = BUILD_DIR / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root))
    result_path = tmp / "result.json"
    spans_path = out_dir / f"{name}.seed{args.seed}.spans.json"
    t_spawn = clock()
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.child",
         "--workload", name, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--check", str(int(args.check)), "--tmp", str(tmp),
         "--t-spawn", repr(t_spawn),
         "--result", str(result_path), "--spans", str(spans_path)],
        env=child_env(tmp), cwd=ROOT, stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        _, status, rusage = os.wait4(proc.pid, 0)
        wall_s = clock() - t_spawn
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise HarnessError(f"{name}: child exited {proc.returncode}")
        record = json.loads(result_path.read_text())
    finally:
        try:  # nothing the child started may outlive it
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if proc.returncode is None:
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    metrics = record["metrics"]
    metrics["wall_s"] = wall_s
    metrics["peak_rss_mb"] = rusage.ru_maxrss / 1024
    # calibrated seconds: what the run would have taken at speed index 1
    # (benchmarks/e2e/calibrate.py); the values as measured stay in the record
    record["measured"] = {name: metrics[name] for name in CALIBRATED if name in metrics}
    for name, power in CALIBRATED.items():
        if name in metrics:
            metrics[name] *= metrics["harness.speed_index"] ** power
    return record


def split_metrics(spec: dict, record: dict) -> tuple[dict, dict]:
    """The child's flat metric dict as (end_to_end, per_layer) in the shape
    the contract prints.  Every end-to-end metric must have been measured;
    a per-layer metric the workload does not exercise reads 0; a name
    ``BENCHMARK.json`` does not declare is a harness error."""
    measured = record["metrics"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(measured) - set(units))
    if unknown:
        raise HarnessError(f"{record['workload']}: undeclared metrics {unknown}")
    bad = sorted(k for k, v in measured.items() if not math.isfinite(v))
    if bad:
        raise HarnessError(f"{record['workload']}: non-finite metrics {bad}")
    missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in measured]
    if missing:
        raise HarnessError(f"{record['workload']}: missing metrics {missing}")

    def shaped(group: str) -> dict:
        return {
            m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec[group]
        }

    return shaped("end_to_end"), shaped("per_layer")


def print_report(record: dict, end_to_end: dict, per_layer: dict) -> None:
    err = sys.stderr
    print(f"\n== {record['workload']} ==", file=err)
    print("environment: " + json.dumps(record["environment"]), file=err)
    for line in record["report"]:
        print("  " + line, file=err)
    print("  end-to-end:", file=err)
    for name, m in end_to_end.items():
        print(f"    {name:<34} {m['value']:>14.6g} {m['unit']}", file=err)
    print("  per-layer (what this workload measured; the rest read 0):", file=err)
    for name, m in per_layer.items():
        if name not in record["metrics"]:
            continue
        print(f"    {name:<34} {m['value']:>14.6g} {m['unit']}", file=err)
    print(
        f"  operations: {record['attempted']} attempted, "
        f"{record['failed']} failed", file=err,
    )
    for failure in record["failures"]:
        print(f"    FAILED {failure}", file=err)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python3 -m benchmarks.e2e", description=__doc__.splitlines()[0]
    )
    ap.add_argument("--workload", action="append", default=[], metavar="NAME",
                    help="run only this workload (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=0,
                    help="drives random_arrays, the daemon request plan and "
                         "the order kernels are visited")
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help=f"measurement budget; repetition counts scale "
                         f"linearly from their values at {RUN_SECONDS}")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: also run the traced pass and print per-layer "
                         "metrics instead of end-to-end ones")
    ap.add_argument("--check", action="store_true",
                    help="smoke mode: tiny sizes, one repetition")
    ap.add_argument("--list", action="store_true",
                    help="print every workload and metric name and exit")
    ap.add_argument("--out", type=Path, default=BUILD_DIR / "out",
                    help="directory for span files and full result records")
    args = ap.parse_args(argv)

    try:
        spec = load_spec()
        if args.list:
            print(list_names(spec))
            return 0
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise HarnessError(f"no program to measure: {ROOT}/src/repro is missing")
        known = [w["name"] for w in spec["workloads"]]
        unknown = sorted(set(args.workload) - set(known))
        if unknown:
            raise HarnessError(f"unknown workloads {unknown}; known: {known}")
        for name in args.workload or known:
            record = run_workload(name, args, args.out)
            end_to_end, per_layer = split_metrics(spec, record)
            print_report(record, end_to_end, per_layer)
            record["end_to_end"], record["per_layer"] = end_to_end, per_layer
            (args.out / f"{name}.seed{args.seed}.result.json").write_text(
                json.dumps(record, indent=1)
            )
            sys.stderr.flush()
            print(json.dumps({
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": per_layer if args.trace else end_to_end,
            }), flush=True)
    except HarnessError as e:
        print(f"benchmarks.e2e: {e}", file=sys.stderr)
        return 1
    return 0
