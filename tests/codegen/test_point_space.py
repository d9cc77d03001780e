"""Tile space vs point space: a diamond band is tiled over its hyperplanes
and scanned, inside a tile, in source order — one innermost loop per
index-set-split piece.

* the re-based kernels compute what the source program computes: Python and
  C at 1, 2 and 4 threads, bitwise, against ``test_inversion``'s reference
  executor (which shares nothing with ``repro.codegen``), at one tile and at
  many (``tile_size`` 32 and 4);
* the inverse of every statement is the identity (``dens == [1, ...]``) and
  neither source carries a divisibility test;
* distribution happens exactly where the order is provably kept.
"""

import dataclasses
import functools
import re

import numpy as np
import pytest

from repro.codegen import (
    build_loop_tree,
    build_scan_systems,
    generate_c,
    generate_c_kernel,
    generate_python,
    original_schedule,
)
from repro.codegen.looptree import Let, Loop, Region
from repro.core import tiling
from repro.core.tiling import TiledSchedule
from repro.exec import ExecutionOptions, compile_kernel
from repro.frontend import parse_program
from repro.frontend.ir import Program
from repro.pipeline import optimize
from repro.polyhedra import AffExpr, Constraint
from repro.runtime import random_arrays
from repro.workloads import get_workload
from tests.codegen.test_inversion import _assert_same, _inputs, _reference

DIAMOND = ["heat-1dp", "fig4-periodic-stencil", "heat-2dp"]
DIVISIBILITY = re.compile(r"% *\d+ *== *0")


@functools.lru_cache(maxsize=None)
def _result(name, tile_size=32):
    w = get_workload(name)
    options = dataclasses.replace(w.pipeline_options("plutoplus"), tile_size=tile_size)
    return optimize(w.program(), options)


@pytest.mark.parametrize("tile_size", [32, 4])
@pytest.mark.parametrize("name", DIAMOND)
def test_rebased_kernels_equal_source_order_reference(name, tile_size, tmp_path, compiler):
    result = _result(name, tile_size)
    assert result.used_diamond
    w, params, want = get_workload(name), dict(get_workload(name).small_sizes), _reference(name)
    arrays = _inputs(w, result.program, params)
    generate_python(result.tiled).run(arrays, params)
    _assert_same(arrays, want, False, f"{name} python")
    kernel = compile_kernel(
        result.tiled, ExecutionOptions(backend="c", strict=True, cache_dir=str(tmp_path))
    )
    for threads in (1, 2, 4):
        arrays = _inputs(w, result.program, params)
        kernel.run(arrays, params, threads=threads)
        _assert_same(arrays, want, False, f"{name} c at {threads} threads")


@pytest.mark.parametrize("name", DIAMOND + ["lbm-ldc-d2q9"])
def test_point_space_is_the_iterators(name):
    tiled = _result(name).tiled
    depth = len(tiled.program.statements[0].space.dims)
    assert [r.kind for r in tiled.rows] == ["tile"] * depth + ["loop"] * depth
    assert all(r.parallel is False for r in tiled.rows)
    # tile space: the schedule's hyperplanes; point space: (t, i, ...)
    assert [r.exprs for r in tiled.rows[:depth]] == [
        r.exprs for r in tiled.source_schedule.rows
    ]
    for s in tiled.program.statements:
        assert [str(r.expr_for(s)) for r in tiled.rows[depth:]] == list(s.space.dims)
    assert [(b.permutable, b.concurrent_start) for b in tiled.bands] == [
        (True, True), (False, False),
    ]
    for system in build_scan_systems(tiled):
        assert system.dens == [1] * depth
    for source in (
        generate_python(tiled).python_source,
        generate_c_kernel(tiled).source,
        generate_c(tiled),
    ):
        assert not DIVISIBILITY.search(source)
        assert not re.search(r"\blb_S", source)  # no per-point range test either
    assert "#pragma omp" not in generate_c_kernel(tiled).source


@pytest.mark.parametrize("name", DIAMOND)
def test_new_rows_round_trip(name):
    result = _result(name)
    data = result.tiled.to_dict()
    back = TiledSchedule.from_dict(result.program, data)
    assert back.to_dict() == data
    assert generate_c_kernel(back).source == generate_c_kernel(result.tiled).source
    rebuilt = type(result).from_json(result.to_json())
    assert rebuilt.tiled.to_dict() == data
    assert generate_python(rebuilt.tiled).python_source == result.code.python_source
    assert generate_c_kernel(rebuilt.tiled).source == generate_c_kernel(result.tiled).source


# -- distribution units -------------------------------------------------------

ONE_D = "for (t = 0; t < T; t++) for (i = 0; i < N; i++) A[t+1][i] = A[t][i] + 1.0;"
TWO_D = (
    "for (i = 0; i < N; i++) for (j = 0; j < N; j++) A[i][j] = A[i][j] + 1.0;"
)


def _pieces(src, cuts, params=("T", "N")):
    """The one statement of ``src`` cut into ``cuts`` — ``name -> [affine
    terms >= 0, ...]`` — as index-set splitting would leave it: same
    accesses, same ``sched``."""
    whole = parse_program(src, "p", params=params)
    (stmt,) = whole.statements
    out = Program("p", whole.params, whole.param_min)
    for name, rows in cuts.items():
        domain = stmt.domain.copy()
        for terms, const in rows:
            domain.add(Constraint(AffExpr.from_terms(stmt.space, terms, const)))
        out.add_statement(dataclasses.replace(stmt, name=name, domain=domain))
    return whole, out


def _innermost(tree):
    """The nodes of the innermost loop level."""
    while isinstance(tree[0], Let) or (isinstance(tree[0], Loop) and tree[0].bounds):
        tree = tree[0].body
    return tree


LOW = [({"i": -2, "N": 1}, -1)]      # 2i <= N - 1
HIGH = [({"i": 2, "N": -1}, 0)]      # 2i >= N


def _runs_like_the_source(whole, split, tsched, params):
    want = random_arrays(whole, params, seed=3)
    got = {k: v.copy() for k, v in want.items()}
    generate_python(original_schedule(whole)).run(want, params)
    generate_python(tsched).run(got, params)
    return all(np.array_equal(want[k], got[k]) for k in want)


def test_ordered_halves_get_one_loop_each():
    whole, split = _pieces(ONE_D, {"S_lo": LOW, "S_hi": HIGH})
    tsched = original_schedule(split)
    nodes = _innermost(build_loop_tree(tsched))
    assert [type(n) for n in nodes] == [Loop, Loop]
    assert [[i.stmt.name for i in n.body] for n in nodes] == [["S_lo"], ["S_hi"]]
    source = generate_python(tsched).python_source
    assert "lb_S" not in source and source.count("for z3 in") == 2
    assert _runs_like_the_source(whole, split, tsched, {"T": 3, "N": 7})


def test_halves_in_the_wrong_order_keep_the_guarded_union():
    whole, split = _pieces(ONE_D, {"S_hi": HIGH, "S_lo": LOW})
    tsched = original_schedule(split)
    (node,) = _innermost(build_loop_tree(tsched))
    assert [i.stmt.name for i in node.body] == ["S_hi", "S_lo"]
    assert "lb_S_hi <= z3" in generate_python(tsched).python_source
    assert _runs_like_the_source(whole, split, tsched, {"T": 3, "N": 7})


def test_overlapping_ranges_keep_the_guarded_union():
    # i <= N - 2 and i >= 1 overlap everywhere in between
    whole, split = _pieces(
        ONE_D, {"S_a": [({"i": -1, "N": 1}, -2)], "S_b": [({"i": 1}, -1)]}
    )
    tsched = original_schedule(split)
    (node,) = _innermost(build_loop_tree(tsched))
    assert len(node.body) == 2
    source = generate_python(tsched).python_source
    assert "lb_S_a <= z3" in source and source.count("for z3 in") == 1


def test_exclusive_guards_distribute_overlapping_ranges():
    # cut on i, innermost loop over j: every j range is [0, N - 1], but no
    # outer point has both pieces
    whole, split = _pieces(TWO_D, {"S_lo": LOW, "S_hi": HIGH}, params=("N",))
    tsched = original_schedule(split)
    nodes = _innermost(build_loop_tree(tsched))
    assert [[i.stmt.name for i in n.body] for n in nodes] == [["S_lo"], ["S_hi"]]
    assert all(inst.guard for n in nodes for inst in n.body)
    assert _runs_like_the_source(whole, split, tsched, {"N": 7})


def test_programs_that_were_not_split_are_not_asked(monkeypatch):
    def never(*args):
        raise AssertionError("distribution asked of a program that was not split")

    monkeypatch.setattr(tiling, "_keeps_order", never)
    p = parse_program(
        "for (i = 0; i < N; i++) { A[i] = 1.0; B[i] = A[i]; }", "p", params=("N",)
    )
    (node,) = _innermost(build_loop_tree(original_schedule(p)))
    assert len(node.body) == 2


def test_a_distributed_parallel_loop_opens_one_region():
    whole, split = _pieces(ONE_D, {"S_lo": LOW, "S_hi": HIGH})
    rows = original_schedule(split).rows
    rows[3] = dataclasses.replace(rows[3], parallel=True)
    tsched = TiledSchedule(split, rows)
    (region,) = _innermost(build_loop_tree(tsched))
    assert isinstance(region, Region)
    assert [(l.pragma, l.workshare) for l in region.body] == [(False, True)] * 2
    source = generate_c_kernel(tsched).source
    assert source.count("#pragma omp parallel") == 1
    assert source.count("#pragma omp for") == 2
    assert "parallel for" not in source
    assert _runs_like_the_source(whole, split, tsched, {"T": 3, "N": 7})


def test_a_band_that_would_not_distribute_keeps_its_hyperplanes():
    """The two halves are one decision: source-order point rows only where
    the innermost loop then runs once per piece."""
    result = _result("heat-1dp")
    sched, program = result.schedule, result.program
    swapped = Program(program.name, program.params, program.param_min)
    for s in reversed(program.statements):     # S0_p (high i) now runs first
        swapped.add_statement(s)
    sched.program = swapped
    try:
        kept = tiling.tile_schedule(sched, tile_size=32)
    finally:
        sched.program = program
    assert [r.band_role for r in kept.rows] == ["tile", "tile", "point", "point"]
    assert [r.exprs for r in kept.rows[2:]] == [r.exprs for r in sched.rows]
    assert all(b.concurrent_start for b in kept.bands)
