"""Reduction detection, relaxation, tagging, and emission (PR 10)."""

import ast
import dataclasses

import numpy as np
import pytest

from repro import api
from repro.codegen import generate_c, generate_python
from repro.core.reductions import (
    REDUCTION_IDENTITY,
    detect_reductions,
    reduction_split,
    relax_reduction_deps,
)
from repro.core.scheduler import SchedulerStats
from repro.deps import compute_dependences
from repro.deps.analysis import DepStats
from repro.frontend import parse_program
from repro.pipeline import PipelineOptions, optimize
from repro.runtime import random_arrays
from repro.workloads import get_workload


class TestReductionSplit:
    """The body parser that both emitters and detection share."""

    def test_scalar_add(self):
        s = reduction_split("s[()] = s[()] + A[i] * B[i]")
        assert s is not None
        assert (s.array, s.op) == ("s", "+")
        assert ast.unparse(s.update) == "A[i] * B[i]"

    def test_array_cell_add(self):
        s = reduction_split("C[i, j] = C[i, j] + A[i, k] * B[k, j]")
        assert s is not None and s.array == "C" and s.op == "+"

    def test_commuted_operands(self):
        s = reduction_split("s[()] = A[i] + s[()]")
        assert s is not None and ast.unparse(s.update) == "A[i]"

    def test_product(self):
        s = reduction_split("p[()] = p[()] * A[i]")
        assert s is not None and s.op == "*"
        assert REDUCTION_IDENTITY[s.op] == "1.0"

    def test_augassign(self):
        s = reduction_split("s[()] += A[i]")
        assert s is not None and s.op == "+"

    def test_sub_folds_into_add(self):
        s = reduction_split("s[()] = s[()] - A[i]")
        assert s is not None and s.op == "+"
        assert ast.unparse(s.update) == "-A[i]"

    def test_sub_wrong_side_rejected(self):
        # e - target does not commute: not a reduction
        assert reduction_split("s[()] = A[i] - s[()]") is None

    def test_update_reading_accumulator_rejected(self):
        assert reduction_split("s[()] = s[()] + s[()] * 2.0") is None
        assert reduction_split("s[()] += s[()]") is None

    def test_non_reduction_forms_rejected(self):
        assert reduction_split("B[i] = 2.0 * A[i]") is None
        assert reduction_split("s[()] = s[()] / A[i]") is None
        assert reduction_split("s = s + A[i]") is None  # bare Name LHS
        assert reduction_split("not python (") is None


class TestDetectReductions:
    def test_dot_detected(self):
        p = get_workload("dot").program()
        (info,) = detect_reductions(p)
        assert (info.array, info.op) == ("s", "+")
        assert info.dims == ("i",)

    def test_tensor_contract_two_dims(self):
        p = get_workload("tensor-contract").program()
        (info,) = detect_reductions(p)
        assert info.dims == ("i", "j")

    def test_gemm_k_only(self):
        src = """
        for (i = 0; i < N; i++)
            for (j = 0; j < N; j++)
                for (k = 0; k < N; k++)
                    C[i][j] = C[i][j] + A[i][k] * B[k][j];
        """
        p = parse_program(src, "g", params=("N",))
        (info,) = detect_reductions(p)
        assert info.dims == ("k",)

    def test_stencil_not_detected(self):
        src = """
        for (t = 0; t < T; t++)
            for (i = 1; i < N-1; i++)
                A[i] = 0.5 * (A[i-1] + A[i+1]);
        """
        p = parse_program(src, "p", params=("T", "N"), param_min=3)
        assert detect_reductions(p) == []

    def test_all_iterators_in_write_not_detected(self):
        # B[i] = B[i] + A[i]: the self-dep is iteration-local, nothing to relax
        src = "for (i = 0; i < N; i++) B[i] = B[i] + A[i];"
        p = parse_program(src, "p", params=("N",))
        assert detect_reductions(p) == []


class TestRelaxation:
    def test_only_self_deps_relaxed(self):
        src = """
        for (i = 0; i < N; i++)
            s = s + A[i];
        for (i = 0; i < N; i++)
            B[i] = 2.0 * s;
        """
        p = parse_program(src, "p", params=("N",))
        deps = compute_dependences(p)
        kept, relaxed = relax_reduction_deps(deps, detect_reductions(p))
        assert relaxed and all(d.source is d.target for d in relaxed)
        # the consumer edge (accumulate -> read of s) survives
        assert any(d.source is not d.target and d.array == "s" for d in kept)
        assert len(kept) + len(relaxed) == len(deps)

    def test_no_reductions_keeps_everything(self):
        p = get_workload("dot").program()
        deps = compute_dependences(p)
        kept, relaxed = relax_reduction_deps(deps, [])
        assert kept == list(deps) and relaxed == []


#: the reduction-tagged levels of each kernel's tiled schedule when relaxed
REDUCTION_LEVELS = {
    "dot": [0], "l2norm": [0], "tensor-contract": [2, 3], "gemm": [6],
}


def _opt(workload, **overrides):
    w = get_workload(workload)
    return optimize(w.program(), w.pipeline_options("plutoplus", **overrides))


class TestEndToEnd:
    def test_dot_serial_without_relaxation(self):
        result = _opt("dot")
        assert result.tiled.parallel_levels() == []
        assert result.tiled.reduction_levels() == []

    def test_dot_parallel_with_relaxation(self):
        result = _opt("dot", parallel_reductions="privatize")
        assert result.tiled.reduction_levels() == [0]
        assert 0 in result.tiled.parallel_levels()
        assert result.scheduler_stats.reductions_detected == 1
        assert result.scheduler_stats.reductions_relaxed >= 1

    @pytest.mark.parametrize("name", sorted(REDUCTION_LEVELS))
    def test_relaxation_tags_every_reduction_kernel(self, name):
        """Each reduction-bound kernel gains a reduction-tagged parallel
        level under the OpenMP discharge, not only dot."""
        levels = REDUCTION_LEVELS[name]
        result = _opt(name, parallel_reductions="omp")
        assert result.tiled.reduction_levels() == levels
        assert set(levels) <= set(result.tiled.parallel_levels())
        assert result.scheduler_stats.reductions_detected == 1
        assert result.scheduler_stats.reductions_relaxed >= 1

    def test_privatized_python_source(self):
        result = _opt("dot", parallel_reductions="privatize")
        src = generate_python(result.tiled).python_source
        assert "# parallel reduction" in src
        assert "= 0.0" in src          # identity seed
        assert "s[()] = s[()] +" in src  # serial combine after the loop

    @pytest.mark.parametrize("name", ["dot", "l2norm", "tensor-contract"])
    def test_relaxed_result_matches_serial(self, name):
        w = get_workload(name)
        serial = optimize(w.program(), w.pipeline_options("plutoplus"))
        relaxed = optimize(
            w.program(),
            w.pipeline_options("plutoplus", parallel_reductions="privatize"),
        )
        params = dict(w.small_sizes)
        base = random_arrays(serial.program, params, seed=3)
        ref = {k: v.copy() for k, v in base.items()}
        out = {k: v.copy() for k, v in base.items()}
        serial.run(ref, params)
        relaxed.run(out, params)
        for k in sorted(base):
            assert np.allclose(ref[k], out[k], rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("mode", ["privatize", "omp"])
    @pytest.mark.parametrize("name", ["dot", "l2norm", "tensor-contract"])
    def test_api_verify_checks_the_relaxed_set(self, name, mode):
        """``repro.api.verify`` relaxes what the result's options scheduled
        relaxed, as ``repro verify`` does; a result without options (or with
        ``"off"``) is checked against every dependence."""
        w = get_workload(name)
        result = api.optimize(w.name, w.pipeline_options(parallel_reductions=mode))
        assert api.verify(result).legal
        assert not api.verify(dataclasses.replace(result, options=None)).legal
        assert api.verify(api.optimize(w.name, w.pipeline_options())).legal

    def test_c_kernel_reduction_clause(self):
        result = _opt("dot", parallel_reductions="omp")
        from repro.codegen.c_emit import generate_c_kernel

        src = generate_c_kernel(result.tiled).source
        assert "reduction(+:" in src

    def test_c_display_source_has_no_racy_pragma(self):
        # display mode never rewrites the body, so a reduction row must not
        # carry a parallel pragma there — only the explanatory comment
        result = _opt("dot", parallel_reductions="omp")
        src = generate_c(result.tiled)
        assert "parallel reduction" in src
        assert "#pragma omp parallel for" not in src


class TestStatsCompat:
    """Pre-PR-10 manifests (no reduction/rar keys) must still parse."""

    @staticmethod
    def _old_record():
        # a pre-PR-10 manifest record: today's serialization never writes
        # the reduction keys at zero, so dropping them reproduces it exactly
        d = SchedulerStats(ilp_solves=4, hyperplanes_found=2).as_dict()
        assert "reductions_detected" not in d
        assert "reductions_relaxed" not in d
        return d

    def test_from_dict_tolerates_missing_keys(self):
        stats = SchedulerStats.from_dict(self._old_record())
        assert stats.reductions_detected == 0
        assert stats.reductions_relaxed == 0
        assert stats.ilp_solves == 4

    def test_round_trip_preserves_nonzero_counters(self):
        stats = SchedulerStats(reductions_detected=2, reductions_relaxed=3)
        again = SchedulerStats.from_dict(stats.as_dict())
        assert again.reductions_detected == 2
        assert again.reductions_relaxed == 3

    def test_dep_stats_omit_zero_rar(self):
        d = DepStats().as_dict()
        assert "rar_deps" not in d
        stats = DepStats()
        stats.rar_deps = 3
        assert stats.as_dict()["rar_deps"] == 3


class TestOptionsValidation:
    def test_bad_parallel_reductions_rejected(self):
        with pytest.raises(ValueError, match="parallel_reductions"):
            PipelineOptions(parallel_reductions="yes")

    def test_bad_rar_rejected(self):
        with pytest.raises(ValueError, match="rar"):
            PipelineOptions(rar="true")

    def test_defaults_absent_from_as_dict(self):
        d = PipelineOptions().as_dict()
        assert "rar" not in d
        assert "parallel_reductions" not in d

    def test_non_defaults_present(self):
        d = PipelineOptions(rar=True, parallel_reductions="omp").as_dict()
        assert d["rar"] is True
        assert d["parallel_reductions"] == "omp"
