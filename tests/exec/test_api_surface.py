"""The redesigned execution API surface: factory, re-exports, stability."""

import numpy as np

from repro.codegen import make_generated_code, original_schedule
from repro.codegen.python_emit import GeneratedCode, generate_python
from repro.frontend import parse_program

SRC = """
for (i = 0; i < N; i++)
    A[i] = 2.0 * A[i];
"""


def _tsched():
    return original_schedule(parse_program(SRC, "p", params=("N",)))


class TestFactory:
    def test_factory_round_trips_generated_code(self):
        tsched = _tsched()
        template = generate_python(tsched)
        code = make_generated_code(template.python_source, tsched)
        assert code == template
        assert code == GeneratedCode(template.python_source, tsched)
        arrays = {"A": np.arange(4.0)}
        code.run(arrays, {"N": 4})
        assert arrays["A"].tolist() == [0.0, 2.0, 4.0, 6.0]


class TestReExports:
    def test_api_re_exports(self):
        from repro import api

        assert api.ExecutionOptions is not None
        assert api.ExecStats is not None

    def test_package_re_exports(self):
        import repro

        assert repro.ExecutionOptions().backend == "python"
        assert repro.ExecStats().backend == "python"
        assert "ExecutionOptions" in repro.__all__
        assert "ExecStats" in repro.__all__

    def test_exec_facade_is_complete(self):
        from repro import exec as rexec

        for name in (
            "ArtifactCache", "CKernel", "CompiledKernel", "Compiler",
            "ExecBackendError", "ExecStats", "ExecutionOptions",
            "artifact_key", "build_c_kernel", "compile_kernel",
            "default_cache_dir", "find_compiler",
        ):
            assert hasattr(rexec, name), name
