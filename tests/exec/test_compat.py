"""Bit-compatibility: the C backend must reproduce the Python kernel.

Every registered workload runs through :func:`backend_compat_check` at its
small validation sizes on the original 2d+1 schedule (exercising every
statement body the repository knows how to emit), plus a handful of full
pipeline outputs covering tiling, skewing, and periodic ISS.  Agreement is
bitwise (``np.array_equal``) — which ``-ffp-contract=off`` makes achievable
on real hardware — unless the schedule parallelizes a reduction, which
reorders floating-point accumulation and drops the contract to tolerance.
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
        f"(abs diff {report.max_abs_diff})"
    )
    assert report.mode == "bitwise"


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
    assert report.ok and report.mode == "bitwise", (
        f"{name}: optimized schedule diverged on {report.mismatched_arrays}"
    )


@pytest.fixture(scope="module")
def dot_omp():
    from repro.pipeline import optimize

    w = get_workload("dot")
    result = optimize(w.program(), w.pipeline_options(parallel_reductions="omp"))
    assert result.tiled.reduction_levels()
    return result.tiled


def test_reduction_schedule_checked_under_tolerance(dot_omp, tmp_path, compiler):
    # the schedule picks the contract: the caller asks for nothing
    report = backend_compat_check(
        dot_omp, {"N": 4096}, ExecutionOptions(backend="c", cache_dir=str(tmp_path))
    )
    assert report.checked, f"fell back: {report.fallback_reason}"
    assert report.ok and report.mode == "tolerance"


def test_candidate_runs_at_the_requested_threads(dot_omp, tmp_path, compiler):
    # one OpenMP thread sums in source order: nothing reassociates
    report = backend_compat_check(
        dot_omp, {"N": 4096},
        ExecutionOptions(backend="c", threads=1, cache_dir=str(tmp_path)),
    )
    assert report.checked, f"fell back: {report.fallback_reason}"
    assert report.ok and report.max_abs_diff == 0


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
