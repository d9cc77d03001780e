"""Hermetic child environment, CPU pinning and the recorded machine facts.

Imported by the parent before ``src/`` is on ``sys.path``: nothing at
module level may import ``repro``.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from pathlib import Path
from typing import Optional

__all__ = [
    "ROOT", "BUILD_DIR", "RUN_SECONDS", "child_env", "clock",
    "environment_record", "pin", "proc_tree_cpu_seconds",
]

#: the checkout this package sits in; everything read or written is below it
ROOT = Path(__file__).resolve().parents[2]
#: build outputs, temp dirs and span files (git-ignored)
BUILD_DIR = ROOT / ".bench_build" / "e2e"

#: ``--seconds`` at which the repetition counts written in the workload
#: modules apply unscaled (``run_seconds`` in BENCHMARK.json)
RUN_SECONDS = 20

#: switches that would change what the program under test does
SCRUBBED = (
    "REPRO_EXACT_LEGACY", "REPRO_DEPS_NO_CACHE", "REPRO_POLY_CACHE_CAP",
    "REPRO_SKELETON_CACHE", "REPRO_ARTIFACT_CACHE", "REPRO_CC",
)


def clock() -> float:
    """Seconds on the system-wide monotonic clock, comparable between the
    parent and its children (``setup_s`` starts in the parent)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env(tmp: Path) -> dict[str, str]:
    """The parent's environment minus the ``REPRO_*`` switches and
    ``OMP_*`` setting, with home and temp redirected into ``tmp`` so no
    default cache location (``~/.cache/repro``) can be read."""
    env = {
        k: v for k, v in os.environ.items()
        if k not in SCRUBBED and not k.startswith("OMP_")
    }
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["HOME"] = env["TMPDIR"] = str(tmp)
    return env


def pin(cpus: set[int]) -> Optional[list[int]]:
    """Pin this process to ``cpus``; returns the mask in effect, or ``None``
    where the platform refuses (recorded, not fatal)."""
    try:
        os.sched_setaffinity(0, cpus)
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return None


def _read(path: str) -> Optional[str]:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _git_sha() -> Optional[str]:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head is None:
        return None  # the driver's checkout is not a git repository
    if head.startswith("ref: "):
        return _read(str(ROOT / ".git" / head[5:]))
    return head


def environment_record(seed: int) -> dict:
    import numpy
    import scipy

    from repro.exec import find_compiler

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next(
        (line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        caches[f"L{level}-{kind}"] = _read(f"{index}/size")
    compiler = find_compiler()
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "cc": compiler.version if compiler else None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
    }


def proc_tree_cpu_seconds(pid: int) -> float:
    """CPU seconds of ``pid`` and its descendants, from ``/proc``: utime +
    stime of every live process in the tree (pool workers are long-lived,
    so the daemon's own ``cutime`` misses them) plus the ``cutime`` +
    ``cstime`` each has collected from children it already reaped
    (recycled workers)."""
    tick = os.sysconf("SC_CLK_TCK")
    total, todo = 0.0, [pid]
    while todo:
        p = todo.pop()
        stat = _read(f"/proc/{p}/stat")
        if stat is None:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        total += sum(int(f) for f in fields[11:15]) / tick
        for task in Path(f"/proc/{p}/task").glob("*/children"):
            todo.extend(int(c) for c in (_read(str(task)) or "").split())
    return total
