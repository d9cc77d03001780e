"""What a process loads to compile, and what ``src/`` holds.

A compile loads numpy and HiGHS's extension module.  ``repro.ilp.highs_backend``
loads ``scipy.optimize._highspy._core`` from its file; an ordinary import of
it would first run ``scipy.optimize``'s package (~0.4 s of linalg, special,
sparse, ...).  The CSC comes from numpy, the SCCs
from ``repro.deps.ddg``.  If the file ever moves, the door falls back to the
ordinary import and still works: this pins the fast path, so that fallback
cannot take over unnoticed.

``src/repro`` holds only what a compile or a served request runs: an
``ast`` walk finds each module imported by another, but for a short list of
entry points, and no import of ``tests``.
"""

import ast
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


#: modules nothing under ``src/repro`` imports, each run some other way
ENTRY_POINTS = {
    "repro.__main__",  # ``python -m repro``
    "repro.deps.dot",  # documented user tool: ``python -m repro.deps.dot``
    "repro.workloads.polybench.reference",  # the oracle of benchmarks/e2e/reference.py
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path, module: str) -> set[str]:
    """Every module ``path``'s source names in an import statement, anywhere
    in it, with the packages above each (importing ``a.b.c`` runs ``a`` and
    ``a.b``); a ``from`` import's names count as modules too."""
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    named = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            named.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0] if node.level > 1 else package
                base = f"{anchor}.{base}" if base else anchor
            named.add(base)
            named.update(f"{base}.{alias.name}" for alias in node.names)
    return {
        ".".join(name.split(".")[: i + 1])
        for name in named for i in range(name.count(".") + 1)
    }


def test_every_module_under_src_is_run_by_the_compiler():
    """``src/repro`` holds what a compile or a served request runs: every
    module is imported by another one, but for :data:`ENTRY_POINTS`; and no
    module imports ``tests`` (oracles live there, the compiler never
    reaches them)."""
    modules = {_module_name(p): p for p in (SRC / "repro").rglob("*.py")}
    imported_by = {name: set() for name in modules}
    for name, path in modules.items():
        named = _imports(path, name)
        assert not any(n == "tests" or n.startswith("tests.") for n in named), name
        for target in named & modules.keys() - {name}:
            imported_by[target].add(name)
    assert {name for name, by in imported_by.items() if not by} == ENTRY_POINTS
