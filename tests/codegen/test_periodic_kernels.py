"""The periodic stencils' emitted kernels: scan order, OpenMP placement,
helper cost, and the proofs behind every rewritten wraparound."""

import ast
import functools
import re
import subprocess
import time

import pytest

from repro.codegen import generate_c_kernel, generate_python, original_schedule
from repro.codegen.c_emit import _c_body, array_ranks, mod_form
from repro.core.iss import index_set_split
from repro.deps import compute_dependences
from repro.exec import ExecStats, ExecutionOptions, compile_kernel
from repro.exec.artifacts import CFLAGS
from repro.frontend.exprs import parse_affine
from repro.pipeline import optimize
from repro.runtime import random_arrays
from repro.workloads import get_workload


@functools.lru_cache(maxsize=None)
def _tiled(name, variant):
    w = get_workload(name)
    return optimize(w.program(), w.pipeline_options(variant)).tiled


@functools.lru_cache(maxsize=None)
def _kernel_source(name, variant):
    return generate_c_kernel(_tiled(name, variant)).source


class TestScanOrder:
    """ISS + diamond: determinant 2 (heat-1dp) and 3 (heat-2dp) maps."""

    @pytest.mark.parametrize("name", ["heat-1dp", "heat-2dp"])
    def test_every_point_once_in_schedule_order(self, name):
        tsched = _tiled(name, "plutoplus")
        program = tsched.program
        params = dict(get_workload(name).small_sizes)
        trace = []
        generate_python(tsched, trace=True).run(
            random_arrays(program, params), params, trace
        )
        want = {
            (s.name, pt)
            for s in program.statements
            for pt in s.domain.enumerate_points(params)
        }
        assert len(trace) == len(set(trace)) == len(want)
        assert set(trace) == want

        def when(event):
            stmt_name, point = event
            stmt = program.statement(stmt_name)
            env = dict(zip(stmt.space.dims, point), **params)
            out = [
                None if row.kind == "wavefront"
                else row.expr_for(stmt).evaluate(env) // (row.tile_size or 1)
                for row in tsched.rows
            ]
            for l, row in enumerate(tsched.rows):
                if row.kind == "wavefront":
                    out[l] = out[l + 1] + out[l + 2]
            return out

        order = [(when(ev), program.statements.index(program.statement(ev[0])))
                 for ev in trace]
        assert order == sorted(order)


CASES = [
    ("heat-1dp", "pluto"), ("heat-1dp", "plutoplus"),
    ("heat-2dp", "pluto"), ("heat-2dp", "plutoplus"),
]


class TestOpenMPPlacement:
    """One region per nest, on its outermost parallel row — a tile row where
    the band's hyperplanes up to it are parallel, the wavefront's inner tile
    row where the first one is not — and none on the innermost row of a
    tiled band (<= tile_size iterations of O(1) work)."""

    def test_region_count(self):
        counts = {
            case: _kernel_source(*case).count("#pragma omp parallel") for case in CASES
        }
        assert counts == {
            ("heat-1dp", "pluto"): 1,       # the untiled i loop
            ("heat-1dp", "plutoplus"): 1,   # the diamond band's wavefront
            ("heat-2dp", "pluto"): 1,       # the first tile row of (j, i)
            ("heat-2dp", "plutoplus"): 1,   # the diamond band's wavefront
        }

    @pytest.mark.parametrize("name", ["heat-1dp", "heat-2dp"])
    def test_a_diamond_band_runs_as_one_wavefront_region(self, name):
        # every thread runs the w loop; the workshared loop below it ends in
        # the barrier between wavefronts, and the last tile index is pinned
        lines = [line.strip() for line in _kernel_source(name, "plutoplus").splitlines()]
        at = lines.index("#pragma omp parallel")
        assert lines[at + 1] == "{"
        assert lines[at + 2].startswith("for (int64_t z0 = ")
        assert lines[at + 3] == "#pragma omp for"
        assert lines[at + 4].startswith("for (int64_t z1 = ")
        assert "const int64_t z2 = z0 - z1;" in lines[at + 5:at + 7]
        assert sum(line.startswith("#pragma omp") for line in lines) == 2

    @pytest.mark.parametrize("case", CASES)
    def test_no_region_inside_another(self, case):
        opened_at = None  # brace depth outside the open region's loop
        depth = 0
        for line in _kernel_source(*case).splitlines():
            text = line.strip()
            if text.startswith("#pragma omp parallel"):
                assert opened_at is None, f"nested region: {text}"
                opened_at = depth
                continue
            depth += text.count("{") - text.count("}")
            if opened_at is not None and depth <= opened_at:
                opened_at = None

    def test_parallel_rows_are_all_accounted_for(self):
        # heat-2dp pluto: the tile row z1 opens the one region, once per
        # time step; the rows nested in it (tile z2, points z3, z4) do not
        tsched = _tiled("heat-2dp", "pluto")
        assert tsched.parallel_levels() == [1, 2, 3, 4]
        assert [tsched.rows[l].kind for l in (1, 2)] == ["tile", "tile"]
        src = _kernel_source("heat-2dp", "pluto")
        assert src.count("#pragma omp") == 1
        pragma = src.index("#pragma omp parallel for")
        header = src[pragma:].splitlines()[1]
        assert re.match(r"\s*for \(int64_t z1 =", header)


class TestHelperCost:
    def test_preprocessed_size_and_cold_compile(self, tmp_path, compiler):
        src = _kernel_source("heat-2dp", "plutoplus")
        path = tmp_path / "k.c"
        path.write_text(src)
        expanded = subprocess.run(
            [compiler.path, "-E", *CFLAGS, "-fopenmp", str(path)],
            capture_output=True, check=True,
        ).stdout
        assert len(expanded) < 1_000_000
        stats = ExecStats()
        t0 = time.perf_counter()
        compile_kernel(
            _tiled("heat-2dp", "plutoplus"),
            ExecutionOptions(backend="c", strict=True, cache_dir=str(tmp_path / "cold")),
            stats,
        )
        assert stats.artifact_cache == "compiled"
        assert time.perf_counter() - t0 <= 5.0


def _mods(stmt):
    return [
        n for n in ast.walk(ast.parse(stmt.body))
        if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mod)
    ]


class TestWraparoundProofs:
    """``a % N`` loses its division only where the statement's own domain
    proves the range; every rewrite is listed with the minima behind it."""

    @pytest.mark.parametrize("name", ["heat-1dp", "heat-2dp", "heat-3dp"])
    def test_every_rewrite_has_a_recorded_proof(self, name):
        program = get_workload(name).program()
        split, used = index_set_split(program, compute_dependences(program))
        assert used
        forms = {}
        for prog in (program, split):
            for stmt in prog.statements:
                for node in _mods(stmt):
                    a = parse_affine(stmt.space, ast.unparse(node.left))
                    m = parse_affine(stmt.space, ast.unparse(node.right))
                    form, proof = mod_form(stmt.domain, a, m)
                    forms[stmt.name, ast.unparse(node)] = form
                    assert form != "mod", (stmt.name, ast.unparse(node))
                    need = {
                        "plain": {"m - 1", "a", "m - 1 - a"},
                        "high": {"m - 1", "a", "2m - 1 - a"},
                        "low": {"m - 1", "m - 1 - a", "a + m"},
                    }[form]
                    assert need <= set(proof), (stmt.name, ast.unparse(node), proof)
                    assert all(v >= 0 for v in proof.values())
                    # the recorded minima are the domain's, recomputed here
                    exprs = {"m - 1": m - 1, "a": a, "m - 1 - a": m - 1 - a,
                             "2m - 1 - a": m * 2 - 1 - a, "a + m": a + m}
                    for label in need:
                        assert proof[label] == stmt.domain.min_of(exprs[label])
        # the unsplit statement wraps on both sides, one compare-and-add each
        assert forms["S0", "(i + 1) % N"] == "high"
        assert forms["S0", "(i - 1) % N"] == "low"
        # the pieces know which side of the cut they are on
        plus = next(s.name for s in split.statements if set(s.name[3:]) == {"p"})
        assert forms[plus, "(i - 1) % N"] == "plain"
        assert forms[plus, "(i + 1) % N"] == "high"

    def test_heat_2dp_upper_piece_reads_without_a_select(self):
        program = get_workload("heat-2dp").program()
        split, _ = index_set_split(program, compute_dependences(program))
        body = _c_body(split.statement("S0_pp"), array_ranks(split))
        assert "A[t][(i - 1)][j]" in body and "A[t][i][(j - 1)]" in body
        assert "repro_mod" not in body

    def test_original_order_kernel_has_no_division(self):
        src = generate_c_kernel(original_schedule(get_workload("heat-1dp").program())).source
        body = src[src.index("void repro_kernel"):]
        assert "repro_mod(" not in body and "%" not in body
        assert "((i + 1) >= N ? (i + 1) - N : (i + 1))" in body
        assert "((i - 1) < 0 ? (i - 1) + N : (i - 1))" in body
