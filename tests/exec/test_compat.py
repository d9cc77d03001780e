"""Bit-compatibility: the C backend must reproduce the Python kernel.

Every registered workload runs through :func:`backend_compat_check` at its
small validation sizes on the original 2d+1 schedule (exercising every
statement body the repository knows how to emit), plus a handful of full
pipeline outputs covering tiling, skewing, and periodic ISS.  Agreement is
bitwise — exact integers, 0 ULPs on floats — which ``-ffp-contract=off``
makes achievable on real hardware.
"""

import numpy as np
import pytest

from repro.codegen import original_schedule
from repro.exec import ExecutionOptions
from repro.runtime.arrays import random_arrays
from repro.runtime.validate import backend_compat_check
from repro.workloads import WORKLOADS, get_workload


def _small_params(w, prog):
    return dict(w.small_sizes) or {p: 8 for p in prog.params}


def _compat_arrays(name, prog, params):
    """Workload-aware inputs: cholesky factorizes, so its matrix must be
    symmetric positive definite or the *reference* kernel leaves the
    domain of sqrt; everything else takes plain random arrays."""
    if name != "cholesky":
        return None
    arrays = random_arrays(prog, params, seed=0)
    for aname, a in arrays.items():
        if a.ndim == 2 and a.shape[0] == a.shape[1]:
            arrays[aname] = a @ a.T + a.shape[0] * np.eye(a.shape[0])
    return arrays


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_original_schedule_bitwise(name, tmp_path, compiler):
    w = get_workload(name)
    prog = w.program()
    params = _small_params(w, prog)
    report = backend_compat_check(
        original_schedule(prog),
        params,
        ExecutionOptions(backend="c", cache_dir=str(tmp_path)),
        arrays=_compat_arrays(name, prog, params),
    )
    assert report.checked, f"fell back: {report.fallback_reason}"
    assert report.ok, (
        f"{name}: C backend diverged on {report.mismatched_arrays} "
        f"(max {report.max_ulps} ulps, abs diff {report.max_abs_diff})"
    )
    assert report.max_ulps == 0


@pytest.mark.parametrize(
    "name", ["fig1-skew", "jacobi-2d-imper", "heat-1dp"]
)
def test_optimized_schedule_bitwise(name, tmp_path, compiler):
    # the full pipeline: tiled + skewed (+ ISS on the periodic stencil)
    from repro.pipeline import optimize

    w = get_workload(name)
    prog = w.program()
    result = optimize(prog, w.pipeline_options("plutoplus"))
    params = _small_params(w, prog)
    report = backend_compat_check(
        result.tiled,
        params,
        ExecutionOptions(backend="c", cache_dir=str(tmp_path)),
    )
    assert report.checked, f"fell back: {report.fallback_reason}"
    assert report.ok and report.max_ulps == 0, (
        f"{name}: optimized schedule diverged on {report.mismatched_arrays}"
    )


def test_compat_check_skips_gracefully_without_compiler(tmp_path):
    w = get_workload("fig1-skew")
    prog = w.program()
    report = backend_compat_check(
        original_schedule(prog),
        _small_params(w, prog),
        ExecutionOptions(
            backend="c", cc="no-such-compiler-xyz", cache_dir=str(tmp_path)
        ),
    )
    assert not report.checked
    assert report.backend == "python"
    assert "no C compiler" in report.fallback_reason
    assert bool(report)  # a skip is not a failure
