"""The kernel-mode C emitter: structure, helpers, ABI contract.

These tests need no compiler — they pin down the emitted text and the
marshalling contract (:class:`CKernelSource`) that the ctypes loader and
any future backend build against.
"""

import pytest

from repro.codegen import generate_c_kernel, original_schedule
from repro.codegen.c_emit import KERNEL_ENTRY
from repro.frontend import parse_program
from repro.pipeline import PipelineOptions, optimize
from repro.workloads import get_workload

SIMPLE = """
for (i = 0; i < N; i++)
    for (j = 0; j < N; j++)
        A[i+1][j+1] = 0.5 * A[i][j];
"""

INT_HELPERS = ("ceild", "floord", "repro_max", "repro_min", "repro_mod")


def _kernel(src=SIMPLE, **opts):
    p = parse_program(src, "p", params=("N",))
    res = optimize(p, PipelineOptions(**opts))
    return generate_c_kernel(res.tiled)


class TestKernelStructure:
    def test_entry_point_and_abi(self):
        ksrc = _kernel()
        assert ksrc.entry == KERNEL_ENTRY
        assert (
            f"void {KERNEL_ENTRY}(double **arrays, "
            "const int64_t *shapes, const int64_t *params)" in ksrc.source
        )
        assert "#include <stdint.h>" in ksrc.source
        assert "#include <math.h>" in ksrc.source

    def test_helpers_are_functions_that_cannot_collide_with_libc(self):
        src = _kernel().source
        # functions, not macros: every argument is evaluated exactly once,
        # so nested max/min chains no longer expand exponentially
        assert "#define" not in src
        for helper in INT_HELPERS:
            assert f"static inline int64_t {helper}(int64_t" in src
        # the body-level min/max stay compare-and-select on doubles
        for helper in ("repro_fmin", "repro_fmax"):
            assert f"static inline double {helper}(double" in src
        # the two CLooG-convention names shed any macro a header gave them;
        # everything else is prefixed; nothing defines a bare min/max
        assert src.index("#undef ceild") < src.index("int64_t ceild(")
        assert src.index("#undef floord") < src.index("int64_t floord(")
        assert " min(" not in src and " max(" not in src

    def test_braces_balanced(self):
        ksrc = _kernel()
        assert ksrc.source.count("{") == ksrc.source.count("}")

    def test_marshalling_contract(self):
        ksrc = _kernel()
        assert ksrc.array_order == ("A",)
        assert ksrc.array_ranks == {"A": 2}
        assert ksrc.param_order == ("N",)

    def test_array_order_is_sorted(self):
        src = """
        for (i = 0; i < N; i++) {
            Z[i] = B[i] + A[i];
        }
        """
        p = parse_program(src, "p", params=("N",))
        ksrc = generate_c_kernel(original_schedule(p))
        assert ksrc.array_order == ("A", "B", "Z")

    def test_omp_controls_present(self):
        ksrc = _kernel(tile=False)
        assert "repro_set_threads" in ksrc.source
        assert "repro_omp_enabled" in ksrc.source
        assert "#pragma omp parallel for" in ksrc.source

    def test_periodic_wraparound_survives(self):
        # the periodic % N of stmt.body survives into the kernel
        w = get_workload("heat-1dp")
        ksrc = generate_c_kernel(original_schedule(w.program()))
        # as the compare-and-add the statement's domain proves
        assert "A[t][((i + 1) >= N ? (i + 1) - N : (i + 1))]" in ksrc.source


class TestReductionEmission:
    """The discharge cases the loop tree decides for reduction rows."""

    def _opt(self, src, **overrides):
        p = parse_program(src, "p", params=("N",))
        opts = dict(
            algorithm="plutoplus", tile=False, parallel_reductions="omp"
        )
        opts.update(overrides)
        return optimize(p, PipelineOptions(**opts))

    def test_scalar_accumulator_gets_reduction_clause(self):
        res = self._opt("for (i = 0; i < N; i++) s = s + A[i] * B[i];")
        assert res.tiled.reduction_levels() == [0]
        src = generate_c_kernel(res.tiled).source
        assert "#pragma omp parallel for reduction(+:__red0)" in src
        assert "double __red0 = 0.0;" in src
        assert "__red0 += (" in src
        # serial combine back into the cell after the loop
        assert "s[0] = s[0] + __red0;" in src
        assert src.count("{") == src.count("}")

    def test_array_cell_accumulator_gets_atomic(self):
        # the written cell is a fixed array element, not a rank-0 scalar:
        # no private copy exists, so the discharge is per-update atomics
        res = self._opt("for (j = 0; j < N; j++) C[0] = C[0] + A[j];")
        assert res.tiled.reduction_levels() == [0]
        src = generate_c_kernel(res.tiled).source
        assert "#pragma omp parallel for\n" in src
        assert "#pragma omp atomic" in src
        assert "reduction(" not in src

    def test_nested_reduction_row_stays_sequential(self):
        # gemm: i/j are genuinely parallel, k is reduction-tagged but
        # nested inside their parallel region — a pragma there would race
        gemm = """
        for (i = 0; i < N; i++)
            for (j = 0; j < N; j++)
                for (k = 0; k < N; k++)
                    C[i][j] = C[i][j] + A[i][k] * B[k][j];
        """
        res = self._opt(gemm)
        assert res.tiled.reduction_levels()
        src = generate_c_kernel(res.tiled).source
        assert "#pragma omp parallel for" in src
        assert "atomic" not in src and "reduction(" not in src
        assert src.count("{") == src.count("}")

    def test_privatize_mode_keeps_native_loop_sequential(self):
        res = self._opt(
            "for (i = 0; i < N; i++) s = s + A[i] * B[i];",
            parallel_reductions="privatize",
        )
        assert res.tiled.reduction_levels() == [0]
        src = generate_c_kernel(res.tiled).source
        assert "reduction(" not in src and "atomic" not in src
        assert "#pragma omp parallel for" not in src
