"""OptimizationResult.run(): backend dispatch, memoization, pickling."""

import pickle

import numpy as np
import pytest

from repro.exec import ExecStats, ExecutionOptions
from repro.pipeline import PipelineOptions, optimize
from repro.runtime.arrays import random_arrays
from repro.workloads import get_workload

WORKLOAD = "fig1-skew"


def _result(**opts):
    w = get_workload(WORKLOAD)
    return optimize(w.program(), PipelineOptions(**opts))


def _inputs(result, seed=0):
    params = dict(get_workload(WORKLOAD).small_sizes)
    return random_arrays(result.program, params, seed=seed), params


class TestRunDispatch:
    def test_python_run_default(self):
        result = _result()
        arrays, params = _inputs(result)
        stats = result.run(arrays, params)
        assert stats.backend == "python"
        assert stats.artifact_cache is None
        assert stats.exec_seconds > 0

    def test_exec_options_pick_the_backend(self, tmp_path, compiler):
        result = _result()
        arrays, params = _inputs(result)
        stats = result.run(
            arrays, params,
            exec_options=ExecutionOptions(
                backend="c", cache_dir=str(tmp_path)
            ),
        )
        assert stats.backend == "c"
        assert stats.backend_requested == "c"

    def test_c_matches_python_bitwise(self, exec_opts):
        result = _result()
        ref_arrays, params = _inputs(result)
        c_arrays = {k: v.copy() for k, v in ref_arrays.items()}
        result.run(ref_arrays, params)
        stats = result.run(c_arrays, params, exec_options=exec_opts)
        assert stats.backend == "c", stats.fallback_reason
        for name in ref_arrays:
            assert np.array_equal(ref_arrays[name], c_arrays[name])

    def test_second_run_hits_memory(self, exec_opts):
        result = _result()
        arrays, params = _inputs(result)
        first = result.run(arrays, params, exec_options=exec_opts)
        assert first.artifact_cache in ("compiled", "disk", "memory")
        second = result.run(arrays, params, exec_options=exec_opts)
        assert second.artifact_cache == "memory"
        assert second.compile_seconds == 0.0

    def test_fallback_records_reason(self, tmp_path):
        result = _result()
        arrays, params = _inputs(result)
        stats = result.run(
            arrays, params,
            exec_options=ExecutionOptions(
                backend="c", cc="no-such-compiler-xyz",
                cache_dir=str(tmp_path),
            ),
        )
        assert stats.backend == "python"
        assert "no C compiler" in stats.fallback_reason


class TestMarshal:
    """The C kernel runs on float64 arrays in place; a float64 array that is
    not C-contiguous goes through a contiguous copy and back, any other
    dtype is refused before the kernel runs."""

    @pytest.fixture(scope="class")
    def gemm(self):
        w = get_workload("gemm")
        result = optimize(w.program(), w.pipeline_options())
        params = dict(w.small_sizes)
        return result, params, random_arrays(result.program, params, seed=0)

    def test_non_float64_array_is_refused_before_the_kernel_runs(
        self, gemm, exec_opts
    ):
        result, params, inputs = gemm
        arrays = {k: v.copy() for k, v in inputs.items()}
        arrays["A"] = arrays["A"].astype(np.int64)
        with pytest.raises(TypeError, match="'A' has dtype int64"):
            result.run(arrays, params, exec_options=exec_opts)
        for name in ("B", "C"):
            assert np.array_equal(arrays[name], inputs[name])

    def test_non_contiguous_float64_is_copied_in_and_out(self, gemm, exec_opts):
        result, params, inputs = gemm
        ref = {k: v.copy() for k, v in inputs.items()}
        result.run(ref, params, exec_options=exec_opts)
        arrays = {k: v.copy() for k, v in inputs.items()}
        arrays["C"] = np.asfortranarray(arrays["C"])
        assert not arrays["C"].flags.c_contiguous
        stats = result.run(arrays, params, exec_options=exec_opts)
        assert stats.backend == "c", stats.fallback_reason
        for name in ref:
            assert np.array_equal(arrays[name], ref[name])


class TestPickle:
    def test_round_trip_drops_kernels_and_recompiles(self, exec_opts):
        result = _result()
        arrays, params = _inputs(result)
        result.run(arrays, params, exec_options=exec_opts)
        assert result.__dict__.get("_kernels")

        clone = pickle.loads(pickle.dumps(result))
        assert "_kernels" not in clone.__dict__

        # the clone reruns through the artifact cache and still agrees
        ref, params = _inputs(result, seed=3)
        out = {k: v.copy() for k, v in ref.items()}
        result.run(ref, params)
        stats = clone.run(out, params, exec_options=exec_opts)
        assert stats.backend == "c", stats.fallback_reason
        for name in ref:
            assert np.array_equal(ref[name], out[name])

    def test_ckernel_pickle_drops_ctypes_handles(self, exec_opts):
        from repro.exec import compile_kernel

        result = _result()
        kernel = compile_kernel(result.tiled, exec_opts)
        arrays, params = _inputs(result)
        kernel.run(arrays, params)
        assert kernel._fn is not None

        clone = pickle.loads(pickle.dumps(kernel))
        assert clone._fn is None and clone._set_threads is None
        out, params = _inputs(result, seed=5)
        ref = {k: v.copy() for k, v in out.items()}
        kernel.run(ref, params)
        clone.run(out, params)  # lazily reloads from the artifact cache
        for name in ref:
            assert np.array_equal(ref[name], out[name])


class TestCacheKeyCompat:
    def test_default_backend_omitted_from_options_dict(self):
        # where a kernel runs is ExecutionOptions': the server cache key
        # hashes as_dict(), which never names a backend, and a dict that
        # does is refused like any other unknown key
        assert "backend" not in PipelineOptions().as_dict()
        for backend in ("python", "c"):
            with pytest.raises(ValueError, match="backend"):
                PipelineOptions.from_dict({"backend": backend})

    def test_backend_is_not_a_pipeline_field(self):
        with pytest.raises(TypeError, match="backend"):
            PipelineOptions(backend="c")

    def test_exec_stats_threads_recorded(self, exec_opts):
        result = _result()
        arrays, params = _inputs(result)
        stats = ExecStats()
        result.run(
            arrays, params,
            exec_options=ExecutionOptions(
                backend="c", threads=1, cache_dir=exec_opts.cache_dir
            ),
            stats=stats,
        )
        assert stats.backend == "c", stats.fallback_reason
        assert stats.threads == 1
