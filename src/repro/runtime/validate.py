"""Transformation validation: run original vs transformed, compare outputs.

The strongest end-to-end check in the repository: for a given program and a
computed transformation, generate code for both the original 2d+1 order and
the transformed order, run both on identical random inputs at small problem
sizes, and require bitwise-tolerant agreement on every array.  This catches
errors anywhere in the stack — dependence analysis, Farkas, the ILP,
satisfaction bookkeeping, tiling, or scanning.
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
    "BackendCompatReport",
    "ValidationResult",
    "backend_compat_check",
    "validate_transformation",
]


@dataclass
class ValidationResult:
    ok: bool
    max_abs_diff: float
    mismatched_arrays: list[str]
    params: dict[str, int]

    def __bool__(self) -> bool:
        return self.ok


def _max_ulp(a: np.ndarray, b: np.ndarray) -> int:
    """Largest ULP distance between two float64 arrays of equal shape.

    Uses the standard order-preserving bit mapping (negative floats fold
    below zero), so the distance is exact for finite values; ``-0.0`` and
    ``+0.0`` compare equal.
    """
    if a.size == 0:
        return 0
    ai = np.ascontiguousarray(a, dtype=np.float64).ravel().view(np.int64)
    bi = np.ascontiguousarray(b, dtype=np.float64).ravel().view(np.int64)
    lo = np.int64(-(2**63))
    am = np.where(ai >= 0, ai, lo - ai)
    bm = np.where(bi >= 0, bi, lo - bi)
    return int(np.max(np.abs(am.astype(np.float64) - bm.astype(np.float64))))


@dataclass
class BackendCompatReport:
    """Did a non-Python backend reproduce the Python kernel bit-for-bit?

    ``checked`` is False when the native path gracefully fell back (no
    compiler, no C body) — nothing was compared, and ``fallback_reason``
    says why.  When checked, ``ok`` requires every array to agree within
    ``max_ulps_allowed`` ULPs (0, the default, is bitwise identity —
    achievable because kernels compile with ``-ffp-contract=off``).
    ``mode`` records which contract was applied: "bitwise"/"ulp" for the
    ULP comparison, "tolerance" when a relative tolerance was requested —
    the contract for parallelized reductions, whose partial-sum
    reassociation makes bitwise identity unattainable (see docs/API.md).
    """

    ok: bool
    checked: bool
    backend: str
    fallback_reason: Optional[str] = None
    max_ulps: int = 0
    max_abs_diff: float = 0.0
    mismatched_arrays: list[str] = field(default_factory=list)
    params: dict[str, int] = field(default_factory=dict)
    mode: str = "bitwise"

    def __bool__(self) -> bool:
        return self.ok


def backend_compat_check(
    tsched: TiledSchedule,
    params: Mapping[str, int],
    exec_options=None,
    seed: int = 0,
    max_ulps: int = 0,
    arrays: Optional[dict] = None,
    rtol: float = 0.0,
    atol: float = 0.0,
) -> BackendCompatReport:
    """Run ``tsched`` on both backends and compare outputs exactly.

    The execution-level analogue of :func:`validate_transformation`: the
    Python kernel is the reference, the backend ``exec_options`` selects is
    the candidate, and agreement is bitwise (``max_ulps=0``) or
    ULP-bounded.  A nonzero ``rtol``/``atol`` switches to the *tolerance*
    contract (``np.allclose``) instead — required when the schedule carries
    parallelized reductions, because ``reduction(..)`` clauses and
    privatized partial sums reassociate floating-point additions and
    bitwise identity no longer holds.  Falls back gracefully — a missing
    compiler yields ``checked=False``, not a failure.
    """
    from repro.exec import ExecStats, ExecutionOptions, compile_kernel

    exec_options = exec_options or ExecutionOptions(backend="c")
    tolerance = bool(rtol or atol)
    mode = "tolerance" if tolerance else ("bitwise" if max_ulps == 0 else "ulp")
    cstats = ExecStats()
    kernel = compile_kernel(tsched, exec_options, cstats)
    if kernel.backend == "python":
        return BackendCompatReport(
            ok=True,
            checked=False,
            backend="python",
            fallback_reason=cstats.fallback_reason,
            params=dict(params),
            mode=mode,
        )
    base = arrays if arrays is not None else random_arrays(
        tsched.program, params, seed=seed
    )
    ref = {k: v.copy() for k, v in base.items()}
    out = {k: v.copy() for k, v in base.items()}
    generate_python(tsched).run(ref, dict(params))
    kernel.run(out, dict(params))

    mismatched: list[str] = []
    worst_ulp = 0
    max_diff = 0.0
    for name in sorted(ref):
        a, b = ref[name], out[name]
        if np.array_equal(a, b):
            continue
        ulps = _max_ulp(a, b)
        worst_ulp = max(worst_ulp, ulps)
        if a.size:
            max_diff = max(max_diff, float(np.max(np.abs(a - b))))
        if tolerance:
            if not np.allclose(a, b, rtol=rtol, atol=atol):
                mismatched.append(name)
        elif ulps > max_ulps:
            mismatched.append(name)
    return BackendCompatReport(
        ok=not mismatched,
        checked=True,
        backend=kernel.backend,
        max_ulps=worst_ulp,
        max_abs_diff=max_diff,
        mismatched_arrays=mismatched,
        params=dict(params),
        mode=mode,
    )


def validate_transformation(
    program: Program,
    tsched: TiledSchedule,
    params: Mapping[str, int],
    seed: int = 0,
    rtol: float = 1e-9,
    atol: float = 1e-11,
) -> ValidationResult:
    """Compare transformed execution against source order on random inputs."""
    base_inputs = random_arrays(program, params, seed=seed)
    ref = {k: v.copy() for k, v in base_inputs.items()}
    out = {k: v.copy() for k, v in base_inputs.items()}

    original = generate_python(original_schedule(program))
    transformed = generate_python(tsched)
    original.run(ref, dict(params))
    transformed.run(out, dict(params))

    mismatched = []
    max_diff = 0.0
    for name in sorted(ref):
        a, b = ref[name], out[name]
        diff = float(np.max(np.abs(a - b))) if a.size else 0.0
        max_diff = max(max_diff, diff)
        if not np.allclose(a, b, rtol=rtol, atol=atol):
            mismatched.append(name)
    return ValidationResult(
        ok=not mismatched,
        max_abs_diff=max_diff,
        mismatched_arrays=mismatched,
        params=dict(params),
    )
