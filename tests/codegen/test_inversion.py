"""Schedules are inverted, not searched: property and differential sweeps.

Over every tier-1 golden cell of variants ``pluto`` / ``plutoplus`` /
``redpar`` plus original order for each of their workloads:

* every statement's loop rows have full column rank, and ``nums / dens``
  is the algebraic inverse of those rows (no non-invertible statement
  exists in the registered set — the emitters have no search fallback);
* the emitted Python kernel and the C kernel at 1, 2 and 4 threads equal a
  reference executor written here — statement bodies run over enumerated
  domain points in 2d+1 order, sharing nothing with ``repro.codegen`` —
  at ``small_sizes``.  Bitwise (``equal_nan``: cholesky's random input is
  made positive definite, nothing else produces NaN), except under
  ``parallel_reductions`` (the ``redpar`` cells), where the scheduler may
  reorder and the emitters reassociate accumulations: there the PR 10
  tolerance contract (rtol 1e-9, atol 1e-11) applies.
"""

import functools

import numpy as np
import pytest

from repro.codegen import (
    NonInjectiveScheduleError,
    build_scan_systems,
    generate_c_kernel,
    generate_python,
    original_schedule,
)
from repro.codegen.python_emit import _EXEC_GLOBALS
from repro.core.tiling import TiledRow, TiledSchedule
from repro.exec import ExecutionOptions, compile_kernel
from repro.frontend import parse_program
from repro.linalg.fraction_matrix import FMatrix
from repro.pipeline import optimize
from repro.polyhedra import AffExpr
from repro.runtime.arrays import infer_shapes
from repro.workloads import get_workload
from tests.golden import cell_specs, load_corpus

SPECS = cell_specs()
CELLS = sorted(
    cid for cid, cell in load_corpus()["cells"].items()
    if cell["tier"] == 1 and cid.rpartition("--")[2] in ("pluto", "plutoplus", "redpar")
)
ORIGINALS = sorted({SPECS[cid][0] + "--orig" for cid in CELLS})


@functools.lru_cache(maxsize=None)
def _schedule(cell_id):
    """``(workload, program, tiled schedule, tolerance?)`` of one cell."""
    name, _, variant = cell_id.rpartition("--")
    w = get_workload(name)
    if variant == "orig":
        program = w.program()
        return w, program, original_schedule(program), False
    options = SPECS[cell_id][1]
    result = optimize(w.program(), options)
    return w, result.program, result.tiled, options.parallel_reductions != "off"


def _inputs(w, program, params):
    rng = np.random.default_rng(11)
    shapes = infer_shapes(program, params)
    arrays = {
        n: rng.random(shapes[n]) if shapes[n] else np.asarray(rng.random())
        for n in sorted(shapes)
    }
    if w.name == "cholesky":
        # the reference leaves sqrt's domain unless the matrix is SPD
        for n, a in arrays.items():
            if a.ndim == 2 and a.shape[0] == a.shape[1]:
                arrays[n] = a @ a.T + a.shape[0] * np.eye(a.shape[0])
    return arrays


@functools.lru_cache(maxsize=None)
def _reference(name):
    """The program in source order, executed without any generated code."""
    w = get_workload(name)
    program = w.program()
    params = dict(w.small_sizes)
    instances = []
    for pos, stmt in enumerate(program.statements):
        code = compile(stmt.body, f"<{stmt.name}>", "exec")
        for point in stmt.domain.enumerate_points(params):
            env = dict(zip(stmt.space.dims, point), **params)
            when = [e if isinstance(e, int) else e.evaluate(env) for e in stmt.sched]
            instances.append((when, pos, code, env))
    arrays = _inputs(w, program, params)
    instances.sort(key=lambda inst: inst[:2])
    for _, _, code, env in instances:
        exec(code, dict(_EXEC_GLOBALS), {**arrays, **env})
    return arrays


def _assert_same(got, want, tolerance, what):
    for name in sorted(want):
        if tolerance:
            same = np.allclose(got[name], want[name], rtol=1e-9, atol=1e-11, equal_nan=True)
        else:
            same = np.array_equal(got[name], want[name], equal_nan=True)
        assert same, f"{what}: array {name} differs"


@pytest.mark.parametrize("cell_id", CELLS + ORIGINALS)
def test_schedule_inverts_per_statement(cell_id):
    _, _, tsched, _ = _schedule(cell_id)
    loop_rows = [r for r in tsched.rows if r.kind == "loop"]
    for sys in build_scan_systems(tsched):
        stmt = sys.stmt
        iters = stmt.space.dims
        if not iters:
            assert sys.nums == [] and sys.dens == []
            continue
        coeffs = [[r.expr_for(stmt).coeff_of(it) for it in iters] for r in loop_rows]
        assert FMatrix(coeffs).rank() == len(iters), stmt.name
        # nums[k] with every z_l replaced by phi_l(iters) is dens[k] * it_k
        for k, it in enumerate(iters):
            back = AffExpr.const(sys.space, sys.nums[k].const_term)
            for l, row in enumerate(tsched.rows):
                c = sys.nums[k].coeff_of(f"z{l}")
                if c:
                    back = back + row.expr_for(stmt).rebase(sys.space) * c
            for p in stmt.space.params:
                back = back + AffExpr.var(sys.space, p) * sys.nums[k].coeff_of(p)
            assert back == AffExpr.var(sys.space, it) * sys.dens[k], (stmt.name, it)


def test_rank_deficient_schedule_is_a_typed_error():
    p = parse_program(
        "for (i = 0; i < N; i++) for (j = 0; j < N; j++) A[i][j] = 1.0;",
        "p", params=("N",),
    )
    s = p.statements[0]
    i_plus_j = AffExpr.from_terms(s.space, {"i": 1, "j": 1})
    flat = TiledSchedule(p, [TiledRow("loop", {"S0": i_plus_j}),
                             TiledRow("loop", {"S0": i_plus_j * 2})])
    for emit in (build_scan_systems, generate_python, generate_c_kernel):
        with pytest.raises(NonInjectiveScheduleError, match="S0"):
            emit(flat)


@pytest.mark.parametrize("cell_id", CELLS + ORIGINALS)
def test_kernels_equal_source_order_reference(cell_id, tmp_path, compiler):
    w, program, tsched, tolerance = _schedule(cell_id)
    params = dict(w.small_sizes)
    want = _reference(w.name)
    arrays = _inputs(w, program, params)
    generate_python(tsched).run(arrays, params)
    _assert_same(arrays, want, tolerance, f"{cell_id} python")
    kernel = compile_kernel(
        tsched, ExecutionOptions(backend="c", strict=True, cache_dir=str(tmp_path))
    )
    for threads in (1, 2, 4):
        arrays = _inputs(w, program, params)
        kernel.run(arrays, params, threads=threads)
        _assert_same(arrays, want, tolerance, f"{cell_id} c at {threads} threads")
