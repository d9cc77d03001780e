"""compile_kernel dispatch: protocol, fallback, strictness."""

import dataclasses

import numpy as np
import pytest

from repro.codegen import generate_python, original_schedule
from repro.exec import (
    CompiledKernel,
    ExecBackendError,
    ExecStats,
    ExecutionOptions,
    compile_kernel,
)
from repro.frontend import Access, Program, Statement, parse_program
from repro.polyhedra import AffExpr, AffineMap, BasicSet
from repro.runtime.arrays import random_arrays

SRC = """
for (i = 1; i < N; i++)
    A[i] = A[i] + A[i-1];
"""


def _tsched():
    return original_schedule(parse_program(SRC, "p", params=("N",)))


def _not_c_tsched():
    """A body the Python kernel runs and the C emitter cannot express."""
    p = Program("not_c", params=("N",))
    sp = p.space_for(["i"])
    i = AffExpr.var(sp, "i")
    p.add_statement(Statement(
        name="S0",
        domain=BasicSet.from_bounds(sp, {"i": (0, AffExpr.var(sp, "N") - 1)}),
        reads=[Access("B", AffineMap(sp, [i]))],
        writes=[Access("A", AffineMap(sp, [i]))],
        body="A[i] = float(not B[i])",
        sched=[0, i, 0],
    ))
    return original_schedule(p)


class TestProtocol:
    def test_python_kernel_satisfies_protocol(self):
        code = generate_python(_tsched())
        assert isinstance(code, CompiledKernel)
        assert code.backend == "python"
        assert "def kernel" in code.source

    def test_c_kernel_satisfies_protocol(self, exec_opts):
        kernel = compile_kernel(_tsched(), exec_opts)
        assert isinstance(kernel, CompiledKernel)
        assert kernel.backend == "c"
        assert "repro_kernel" in kernel.source

    def test_every_kernel_runs_through_one_call(self, exec_opts):
        t = _tsched()
        params = {"N": 64}
        base = random_arrays(t.program, params, seed=1)
        outs = []
        for kernel in (generate_python(t), compile_kernel(t, exec_opts)):
            arrays = {k: v.copy() for k, v in base.items()}
            s = ExecStats()
            kernel.run(arrays, params, threads=1, stats=s)
            assert s.exec_seconds > 0, kernel.backend
            outs.append(arrays)
        py, c = outs
        for name in base:
            assert py[name].tobytes() == c[name].tobytes(), name


class TestDispatch:
    def test_default_is_python(self):
        stats = ExecStats()
        kernel = compile_kernel(_tsched(), stats=stats)
        assert kernel.backend == "python"
        assert stats.backend_requested == "python"
        assert stats.fallback_reason is None

    def test_python_backend_reuses_given_code(self):
        code = generate_python(_tsched())
        assert compile_kernel(_tsched(), code=code) is code

    def test_missing_compiler_falls_back_with_reason(self, tmp_path):
        opts = ExecutionOptions(
            backend="c", cc="no-such-compiler-xyz", cache_dir=str(tmp_path)
        )
        stats = ExecStats()
        kernel = compile_kernel(_tsched(), opts, stats)
        assert kernel.backend == "python"
        assert stats.backend_requested == "c"
        assert stats.backend == "python"
        assert "no C compiler" in stats.fallback_reason

    def test_strict_mode_raises_instead(self, tmp_path):
        opts = ExecutionOptions(
            backend="c", cc="no-such-compiler-xyz",
            cache_dir=str(tmp_path), strict=True,
        )
        with pytest.raises(ExecBackendError, match="no C compiler"):
            compile_kernel(_tsched(), opts)

    def test_c_backend_records_stats(self, exec_opts):
        stats = ExecStats()
        kernel = compile_kernel(_tsched(), exec_opts, stats)
        assert kernel.backend == "c"
        assert stats.backend == "c"
        assert stats.backend_requested == "c"
        assert stats.artifact_cache in ("compiled", "disk", "memory")
        assert stats.artifact_key and stats.compiler

    def test_c_emit_error_falls_back_with_reason(self, exec_opts):
        stats = ExecStats()
        kernel = compile_kernel(_not_c_tsched(), exec_opts, stats)
        assert kernel.backend == "python"
        assert (stats.backend_requested, stats.backend) == ("c", "python")
        assert "unknown function 'float'" in stats.fallback_reason
        arrays = {"A": np.zeros(2), "B": np.array([0.0, 2.0])}
        kernel.run(arrays, {"N": 2})
        assert arrays["A"].tolist() == [1.0, 0.0]

    def test_c_emit_error_is_a_backend_error_when_strict(self, exec_opts):
        strict = dataclasses.replace(exec_opts, strict=True)
        with pytest.raises(ExecBackendError, match="unknown function 'float'"):
            compile_kernel(_not_c_tsched(), strict)
