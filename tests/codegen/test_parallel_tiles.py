"""Parallel tile rows and tile-index wavefronts run bitwise at every thread
count.

Every registered workload whose ``plutoplus`` kernel gains an OpenMP region
on a tile row or a wavefront (:func:`repro.core.tiling.tile_schedule`) is
scheduled at tile size 4, so ``small_sizes`` span several tiles per band,
and checked twice: the Python kernel against ``test_inversion``'s
source-order reference executor (which shares nothing with
``repro.codegen``), and the C kernel at 1, 2 and 4 threads against the
Python one through ``backend_compat_check``, bitwise.  ``l2tile`` moves a
wavefront out to the L2 tiles, ``intra_tile`` rotates the point rows under
parallel tile rows: one band each.  swim and lbm-ldc-d3q27 are left out
for their schedule time alone (~60 s and ~8 s cold).
"""

import dataclasses
import functools

import pytest

from repro.codegen import generate_c_kernel, generate_python
from repro.exec import ExecutionOptions
from repro.pipeline import optimize
from repro.runtime.validate import backend_compat_check
from repro.workloads import all_workloads, get_workload
from tests.codegen.test_inversion import _assert_same, _inputs, _reference

SLOW = ("swim", "lbm-ldc-d3q27")
#: registered workloads whose plutoplus schedule has no band wide enough to
#: tile (every band is one row), so no tile row and no wavefront
UNCHANGED = (
    "dot", "durbin", "fig2-symmetric-consumer", "gramschmidt", "l2norm",
    "tensor-contract",
)
GAINS = sorted(
    w.name for w in all_workloads() if w.name not in SLOW + UNCHANGED
)
EXTRA = {
    "heat-1dp+l2tile": ("heat-1dp", {"l2tile": True, "l2_ratio": 2}),
    "gemm+intra_tile": ("gemm", {"intra_tile": True}),
}


@functools.lru_cache(maxsize=None)
def _tiled(name, **overrides):
    w = get_workload(name)
    options = dataclasses.replace(
        w.pipeline_options("plutoplus"), tile_size=4, **overrides
    )
    result = optimize(w.program(), options)
    return result.program, result.tiled


def _gains(tsched) -> bool:
    return any(
        r.kind == "wavefront" or (r.kind == "tile" and r.parallel)
        for r in tsched.rows
    )


def _check_bitwise(name, program, tsched, tmp_path):
    w = get_workload(name)
    params = dict(w.small_sizes)
    arrays = _inputs(w, program, params)
    generate_python(tsched).run(arrays, params)
    _assert_same(arrays, _reference(name), False, f"{name} python")
    for threads in (1, 2, 4):
        check = backend_compat_check(
            tsched, params,
            ExecutionOptions(backend="c", threads=threads, strict=True,
                             cache_dir=str(tmp_path)),
            arrays=_inputs(w, program, params),
        )
        assert check.checked and check.mode == "bitwise", (name, threads)
        assert check.ok, f"{name} c at {threads} threads: {check.mismatched_arrays}"


@pytest.mark.parametrize("name", GAINS)
def test_parallel_tiles_are_bitwise(name, tmp_path, compiler):
    program, tsched = _tiled(name)
    assert _gains(tsched)
    assert "#pragma omp parallel" in generate_c_kernel(tsched).source
    _check_bitwise(name, program, tsched, tmp_path)


@pytest.mark.parametrize("name", UNCHANGED)
def test_the_rest_gain_nothing(name):
    assert not _gains(_tiled(name)[1])


@pytest.mark.parametrize("case", sorted(EXTRA))
def test_l2tile_and_intra_tile_are_bitwise(case, tmp_path, compiler):
    name, overrides = EXTRA[case]
    program, tsched = _tiled(name, **overrides)
    kinds = [(r.kind, r.band_role, bool(r.parallel)) for r in tsched.rows]
    if "l2tile" in overrides:
        # the wavefront scans the L2 tiles; the L1 tiles run in order
        assert kinds[:5] == [
            ("wavefront", "wavefront", False), ("tile", "l2-tile", True),
            ("tile", "l2-tile", False), ("tile", "tile", False),
            ("tile", "tile", False),
        ]
    else:
        # tiles (i, j, k): i and j parallel; the point row j rotated innermost
        assert [p for k, _, p in kinds if k == "tile"] == [True, True, False]
        assert [p for _, role, p in kinds if role == "point"] == [True, False, True]
    _check_bitwise(name, program, tsched, tmp_path)


def test_a_guarded_parallel_loop_runs_its_empty_ranges(tmp_path, compiler):
    # the quick path's fig2 kernel puts `#pragma omp parallel for` on loops
    # whose range is empty where a statement's guard fails: with the empty
    # range (INT64_MAX, INT64_MIN) the trip count wrapped to 2 and the body
    # wrote at i = INT64_MAX (heap corruption, an abort later on)
    from tests.golden import cell_specs

    workload, options = cell_specs()["fig2-symmetric-consumer--quick"]
    result = optimize(workload, dataclasses.replace(options, tile_size=4))
    source = generate_c_kernel(result.tiled).source
    assert "#pragma omp parallel for" in source and "INT64_MAX" not in source
    _check_bitwise(workload, result.program, result.tiled, tmp_path)
