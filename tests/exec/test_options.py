"""ExecutionOptions validation and ExecStats manifest tolerance."""

import pytest

from repro.exec import BACKENDS, ExecStats, ExecutionOptions


class TestExecutionOptions:
    def test_defaults_are_python(self):
        opts = ExecutionOptions()
        assert opts.backend == "python"
        assert opts.threads is None and not opts.strict

    def test_kw_only(self):
        with pytest.raises(TypeError):
            ExecutionOptions("c")  # positional construction is banned

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            ExecutionOptions(backend="fortran")

    def test_auto_is_retired(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            ExecutionOptions(backend="auto")
        with pytest.raises(ValueError, match="unknown execution backend"):
            ExecutionOptions.from_dict({"backend": "auto"})

    def test_backends_constant_matches_validation(self):
        for backend in BACKENDS:
            assert ExecutionOptions(backend=backend).backend == backend

    def test_threads_must_be_positive(self):
        with pytest.raises(ValueError, match="threads"):
            ExecutionOptions(threads=0)

    def test_dict_round_trip(self):
        opts = ExecutionOptions(backend="c", threads=4, strict=True)
        assert ExecutionOptions.from_dict(opts.as_dict()) == opts

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown ExecutionOptions"):
            ExecutionOptions.from_dict({"backend": "c", "turbo": True})


class TestExecStats:
    def test_as_dict_from_dict_round_trip(self):
        stats = ExecStats(
            backend_requested="c", backend="c", compile_seconds=1.5,
            artifact_cache="compiled", artifact_key="ab" * 32, omp=True,
        )
        assert ExecStats.from_dict(stats.as_dict()) == stats

    def test_from_dict_tolerates_old_manifests(self):
        # a manifest written before ExecStats existed at all
        assert ExecStats.from_dict({}) == ExecStats()
        # ... or before any given field was added
        partial = ExecStats.from_dict({"backend": "c", "exec_seconds": 0.25})
        assert partial.backend == "c"
        assert partial.exec_seconds == 0.25
        assert partial.artifact_cache is None and partial.omp is None

    def test_from_dict_ignores_future_fields(self):
        # fields added by a later format version must not break parsing
        stats = ExecStats.from_dict({"backend": "c", "gpu_seconds": 9.0})
        assert stats.backend == "c"

    def test_fallback_reason_defaults_none(self):
        assert ExecStats().fallback_reason is None
