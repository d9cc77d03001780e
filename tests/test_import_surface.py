"""What a process loads to compile: numpy and HiGHS's extension module.

``repro.ilp.highs_backend`` loads ``scipy.optimize._highspy._core`` from its
file; an ordinary import of it would first run ``scipy.optimize``'s package
(~0.4 s of linalg, special, sparse, ...).  The CSC comes from numpy, the SCCs
from ``repro.deps.ddg``.  If the file ever moves, the door falls back to the
ordinary import and still works: this pins the fast path, so that fallback
cannot take over unnoticed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_CHILD = """
import json, sys
import repro, repro.cli
from repro.api import optimize
from repro.polyhedra.cache import global_cache
from repro.workloads import get_workload

global_cache().clear()
workload = get_workload("heat-1dp")
optimize(workload.program(), workload.pipeline_options("plutoplus"))
print(json.dumps(sorted(sys.modules)))
"""


def test_a_cold_compile_loads_neither_scipy_optimize_nor_sparse_nor_networkx():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env, capture_output=True, text=True,
        check=True, timeout=300,
    ).stdout
    modules = set(json.loads(out))
    assert "scipy.optimize._highspy._core" in modules
    assert not modules & {"scipy.optimize", "scipy.sparse", "networkx"}
