"""Smoke test of the harness itself (``pytest benchmarks/e2e``; not under
``testpaths``): ``--check`` mode, every workload, traced pass on.

Checks the contract between ``BENCHMARK.json``, ``--list`` and what the
workloads emit, not any speed.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: metrics each workload must itself measure (not merely report as 0)
MEASURED_ON = {
    "periodic-native": {
        "cc_s", "run_s", "speedup_vs_orig", "code_bytes", "core.iss_s",
        "core.diamond_s", "codegen.c_emit_s", "exec.run_plutoplus_s",
    },
    "polybench-compile": {"core.scheduler_s", "ilp.solve_s", "deps.compute_s"},
    "recompile-warm": {
        "warm_compile_ms", "core.skeleton.lookup_s", "core.skeleton.hits",
        "core.quick_s", "polyhedra.cache_hit_ratio",
    },
    "daemon-mixed": {
        "hit_p50_ms", "miss_p50_ms", "server.hit_ratio", "server.shutdown_s",
    },
}


def _harness(*args):
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def check_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e-out")
    proc = _harness("--check", "--trace", "1", "--seed", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    records = {
        w["name"]: json.loads((out / f"{w['name']}.seed3.result.json").read_text())
        for w in SPEC["workloads"]
    }
    return lines, records, out


def test_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def test_list_agrees_with_benchmark_json():
    listed = _harness("--list").stdout
    for w in SPEC["workloads"]:
        assert re.search(rf"^\s+{re.escape(w['name'])}\s", listed, re.M)
    for m in SPEC["end_to_end"]:
        assert re.search(
            rf"^\s+{re.escape(m['name'])}\s+{re.escape(m['unit'])}\s+"
            rf"{m['better']}\s+{m['bound']}$", listed, re.M,
        ), m["name"]
    for m in SPEC["per_layer"]:
        assert re.search(
            rf"^\s+{re.escape(m['name'])}\s+{re.escape(m['unit'])}\s+{m['better']}$",
            listed, re.M,
        ), m["name"]


def test_every_workload_prints_every_metric(check_run):
    lines, records, _ = check_run
    assert len(lines) == len(SPEC["workloads"])
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    for line, workload in zip(lines, SPEC["workloads"]):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == per_layer          # --trace 1
        assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
        end_to_end = records[workload["name"]]["end_to_end"]
        assert list(end_to_end) == [m["name"] for m in SPEC["end_to_end"]]
        assert all(
            math.isfinite(m["value"]) and m["value"] > 0 for m in end_to_end.values()
        ), end_to_end


def test_metrics_are_measured_where_declared(check_run):
    _, records, _ = check_run
    for workload, names in MEASURED_ON.items():
        missing = names - set(records[workload]["metrics"])
        assert not missing, (workload, missing)
    measured_somewhere = set().union(*(r["metrics"] for r in records.values()))
    declared = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    unmeasured = declared - measured_somewhere
    if (os.cpu_count() or 1) < 2:
        unmeasured = {n for n in unmeasured if "2t" not in n}
    assert not unmeasured


def test_span_files_are_written(check_run):
    _, _, out = check_run
    for w in SPEC["workloads"]:
        data = json.loads((out / f"{w['name']}.seed3.spans.json").read_text())
        assert data["spans"], w["name"]
        assert set(data["spans"][0]) == {
            "name", "t0", "t1", "parent", "request_id", "attrs"
        }


def test_daemon_ends_cleanly_and_mostly_hits(check_run):
    _, records, _ = check_run
    m = records["daemon-mixed"]["metrics"]
    assert m["server.busy"] == 0 and m["server.errors"] == 0
    assert m["server.hit_ratio"] >= 0.99
