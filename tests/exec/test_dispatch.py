"""compile_kernel dispatch: protocol, fallback, strictness."""

import pytest

from repro.codegen import generate_python, original_schedule
from repro.exec import (
    CompiledKernel,
    ExecBackendError,
    ExecStats,
    ExecutionOptions,
    compile_kernel,
)
from repro.frontend import parse_program

SRC = """
for (i = 1; i < N; i++)
    A[i] = A[i] + A[i-1];
"""


def _tsched():
    return original_schedule(parse_program(SRC, "p", params=("N",)))


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
