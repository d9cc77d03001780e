"""Output checks: run a reference kernel and a candidate, compare every array.

The strongest end-to-end check in the repository.  Two entry points share
one comparison and one report:

* :func:`validate_transformation` runs the original 2d+1 order and the
  transformed order, both in Python.  It catches errors anywhere in the
  stack: dependence analysis, Farkas, the ILP, satisfaction bookkeeping,
  tiling, or scanning.
* :func:`backend_compat_check` runs one schedule in Python and on the
  native backend.

The schedule under test picks the contract, never the caller.  Without a
reduction-tagged level nothing reassociates, so agreement is bitwise
(``np.array_equal``; ``+0.0`` equals ``-0.0`` and a NaN both runs produce
equals itself).  Native kernels compile with ``-ffp-contract=off`` to keep
it so.  A reduction-tagged level (``parallel_reductions="privatize"`` /
``"omp"``) reorders floating-point accumulation, which does not associate,
so agreement is :data:`TOLERANCE` per array instead (docs/API.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from repro.codegen.python_emit import generate_python
from repro.core.tiling import TiledSchedule, original_schedule
from repro.frontend.ir import Program
from repro.runtime.arrays import random_arrays

__all__ = [
    "TOLERANCE",
    "ValidationResult",
    "backend_compat_check",
    "validate_transformation",
]

#: ``np.allclose`` keywords of the tolerance contract (reduction-tagged schedules)
TOLERANCE = {"rtol": 1e-9, "atol": 1e-11, "equal_nan": True}


@dataclass
class ValidationResult:
    """Did the candidate kernel reproduce the reference on every array?

    ``mode`` is the contract the schedule chose: ``"bitwise"`` or
    ``"tolerance"``.  ``checked`` is False when a native candidate fell back
    to Python (no compiler, no C body): nothing was compared,
    ``fallback_reason`` says why, and ``ok`` stays True.  ``backend`` names
    the engine the candidate ran on.  ``max_abs_diff`` is reported under
    either contract.
    """

    ok: bool
    mode: str = "bitwise"
    checked: bool = True
    backend: str = "python"
    fallback_reason: Optional[str] = None
    max_abs_diff: float = 0.0
    mismatched_arrays: list[str] = field(default_factory=list)
    params: dict[str, int] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


def _mode(tsched: TiledSchedule) -> str:
    return "tolerance" if tsched.reduction_levels() else "bitwise"


def _compare(reference, candidate, mode: str, params: Mapping[str, int],
             arrays: dict, threads: Optional[int] = None) -> ValidationResult:
    """Run both kernels on copies of ``arrays``; compare under ``mode``."""
    ref = {k: v.copy() for k, v in arrays.items()}
    out = {k: v.copy() for k, v in arrays.items()}
    reference.run(ref, dict(params))
    candidate.run(out, dict(params), threads=threads)

    mismatched: list[str] = []
    max_diff = 0.0
    for name in sorted(ref):
        a, b = ref[name], out[name]
        if np.array_equal(a, b, equal_nan=True):
            continue
        # where they differ; a NaN on one side only reads as an infinite gap
        differ = (a != b) & ~(np.isnan(a) & np.isnan(b))
        gap = np.nan_to_num(np.abs(a[differ] - b[differ]), nan=np.inf)
        max_diff = max(max_diff, float(gap.max()))
        if mode == "bitwise" or not np.allclose(a, b, **TOLERANCE):
            mismatched.append(name)
    return ValidationResult(
        ok=not mismatched,
        mode=mode,
        backend=candidate.backend,
        max_abs_diff=max_diff,
        mismatched_arrays=mismatched,
        params=dict(params),
    )


def validate_transformation(
    program: Program,
    tsched: TiledSchedule,
    params: Mapping[str, int],
) -> ValidationResult:
    """Compare ``tsched`` against source order, both in Python, on random inputs."""
    return _compare(generate_python(original_schedule(program)),
                    generate_python(tsched), _mode(tsched), params,
                    random_arrays(program, params))


def backend_compat_check(
    tsched: TiledSchedule,
    params: Mapping[str, int],
    exec_options=None,
    arrays: Optional[dict] = None,
) -> ValidationResult:
    """Compare the backend ``exec_options`` selects (C by default) against
    the Python kernel of the same ``tsched``.

    The candidate runs at ``exec_options.threads``.  A graceful fallback to
    Python (no compiler, no C body) gives ``checked=False``, not a failure.
    """
    from repro.exec import ExecStats, ExecutionOptions, compile_kernel

    exec_options = exec_options or ExecutionOptions(backend="c")
    mode = _mode(tsched)
    cstats = ExecStats()
    kernel = compile_kernel(tsched, exec_options, cstats)
    if kernel.backend == "python":
        return ValidationResult(
            ok=True,
            mode=mode,
            checked=False,
            fallback_reason=cstats.fallback_reason,
            params=dict(params),
        )
    base = arrays if arrays is not None else random_arrays(tsched.program, params)
    return _compare(generate_python(tsched), kernel, mode, params, base,
                    threads=exec_options.threads)
