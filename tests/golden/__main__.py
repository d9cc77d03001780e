"""``python -m tests.golden [--check | --write | --digest]`` — check or
regenerate the corpus, or fingerprint whole results.

Run from the repository root with ``PYTHONPATH=src``.  ``--check`` (the
default) recomputes the selected cells, prints each ``tests.golden.mismatch``
report to standard error and exits 1 if there was one; ``--write``
always recomputes every cell and rewrites the whole of ``schedules.json``
(checkpointed after every cell), so the header describes every cell in it.
``--digest`` prints one ``workload scheduler sha256`` line per request of
``tests.golden.digest_lines`` (~1 min): two checkouts whose files are equal
produce the same programs, schedules, code, options and counters.  It runs
itself under ``PYTHONHASHSEED=0`` with no ``REPRO_*`` variable set.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import time

import numpy
import scipy

from repro.store import atomic_write_text
from tests.golden import (
    CORPUS_PATH,
    TIER1_MAX_SECONDS,
    cell_specs,
    compute_cell,
    digest_lines,
    load_corpus,
    mismatch,
)


def _provenance() -> dict:
    commit = subprocess.run(
        ["git", "rev-parse", "--short=7", "HEAD"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    env = {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")}
    return {"commit": commit, **({"env": env} if env else {})}


def _write(selected: dict) -> int:
    cells: dict = {}
    provenance = _provenance()
    header = {
        "format": 1,
        "generated_by": "python -m tests.golden --write",
        **provenance,
        "date": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "scipy": scipy.__version__,
        "numpy": numpy.__version__,
        "tier1_max_seconds": TIER1_MAX_SECONDS,
    }
    t_start = time.perf_counter()
    for n, (cell_id, (workload, options)) in enumerate(selected.items(), 1):
        cell = compute_cell(workload, options)
        tier = 1 if cell["seconds"] <= TIER1_MAX_SECONDS else "full"
        cells[cell_id] = {**provenance, "tier": tier, **cell}
        header["cells_written"] = n
        header["wall_seconds"] = round(time.perf_counter() - t_start, 1)
        corpus = {"header": header, "cells": cells}
        atomic_write_text(CORPUS_PATH, json.dumps(corpus, indent=1) + "\n")
        print(f"[{n}/{len(selected)}] {cell_id}: {cell['seconds']}s "
              f"tier {tier}", flush=True)
    return 0


def _check(selected: dict, cells: dict) -> int:
    reports = []
    for cell_id, (workload, options) in selected.items():
        report = mismatch(cell_id, cells[cell_id], compute_cell(workload, options))
        print(f"{'FAIL' if report else 'ok  '} {cell_id}", flush=True)
        if report:
            reports.append(report)
    for report in reports:
        print("\n" + report, file=sys.stderr)
    print(f"{len(selected) - len(reports)}/{len(selected)} cells match")
    return 1 if reports else 0


def _digest_main(argv) -> int:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    if env != dict(os.environ):
        args = sys.argv[1:] if argv is None else argv
        cmd = [sys.executable, "-m", "tests.golden", *args]
        return subprocess.run(cmd, env=env).returncode
    for line in digest_lines():
        print(line, flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.golden")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="(default)")
    mode.add_argument("--write", action="store_true")
    mode.add_argument(
        "--digest", action="store_true",
        help="print a whole-result sha256 per request instead",
    )
    parser.add_argument(
        "--tier", choices=["1", "full", "all"], default="all",
        help="--check only: which stored tier to recompute",
    )
    args = parser.parse_args(argv)

    if args.digest:
        return _digest_main(argv)
    selected = cell_specs()
    if args.write:
        if args.tier != "all":
            parser.error("--tier selects cells to --check; --write regenerates all")
        return _write(selected)
    cells = load_corpus()["cells"]
    if args.tier != "all":
        selected = {
            cid: spec for cid, spec in selected.items()
            if str(cells[cid]["tier"]) == args.tier
        }
    return _check(selected, cells)


if __name__ == "__main__":
    raise SystemExit(main())
