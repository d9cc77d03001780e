"""Tests for the parallel suite engine: crashes, hangs, retries, resume.

Hostile workloads are registered in the parent process; workers are forked,
so they inherit the registry and execute the injected factory.  Skipped
where fork is unavailable (the engine falls back to spawn there, which
cannot see test-local registrations).
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.exec import ExecutionOptions
from repro.frontend import parse_program
from repro.pipeline import PipelineOptions, optimize
from repro.suite import RunSpec, SuiteManifest, build_matrix, run_suite
from repro.workloads import WORKLOADS, Workload, register

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="crash/hang injection requires forked workers",
)

TINY = """
for (i = 1; i < N; i++)
    A[i] = 0.5 * A[i-1];
"""


def _tiny_program():
    return parse_program(TINY, "tiny", params=("N",))


def _crash_factory():
    os.kill(os.getpid(), signal.SIGKILL)


def _hang_factory():
    time.sleep(60)


def _raise_factory():
    raise RuntimeError("injected pipeline explosion")


@pytest.fixture
def hostile_registry():
    """Register tiny + hostile workloads; clean the registry afterwards."""
    names = ["suite-test-tiny", "suite-test-crash", "suite-test-hang",
             "suite-test-raise"]
    register(Workload(names[0], "test", _tiny_program))
    register(Workload(names[1], "test", _crash_factory))
    register(Workload(names[2], "test", _hang_factory))
    register(Workload(names[3], "test", _raise_factory))
    yield names
    for n in names:
        WORKLOADS.pop(n, None)


def _spec(workload: str) -> RunSpec:
    return RunSpec(
        run_id=f"{workload}--plutoplus",
        workload=workload,
        variant="plutoplus",
        options=PipelineOptions(tile=False),
    )


def _run(tmp_path, specs, **kwargs):
    manifest = SuiteManifest.create(tmp_path, specs, {})
    return run_suite(manifest, **kwargs)


class TestEngine:
    def test_ok_run_produces_record(self, tmp_path, hostile_registry):
        res = _run(tmp_path, [_spec("suite-test-tiny")], jobs=1, timeout=60)
        assert res.ok and not res.failures
        (record,) = res.records
        assert record["status"] == "ok"
        assert record["attempts"] == 1
        assert record["schedule"]["rows"]
        assert record["timing"]["total"] > 0
        # persisted on disk too
        on_disk = res.manifest.load_record("suite-test-tiny--plutoplus")
        assert on_disk == record

    def test_schedule_identical_to_sequential(self, tmp_path, hostile_registry):
        res = _run(tmp_path, [_spec("suite-test-tiny")], jobs=1, timeout=60)
        sequential = optimize(_tiny_program(), PipelineOptions(tile=False))
        assert res.records[0]["schedule"] == sequential.schedule.to_dict()

    def test_worker_crash_becomes_failure_with_retries(
        self, tmp_path, hostile_registry
    ):
        res = _run(tmp_path, [_spec("suite-test-crash")], jobs=1, timeout=60,
                   retries=1)
        assert not res.ok
        (failure,) = res.failures
        assert failure.kind == "crash"
        assert failure.attempts == 2  # first try + one retry, both crashed
        assert "without reporting" in failure.message

    def test_timeout_kills_and_records(self, tmp_path, hostile_registry):
        t0 = time.perf_counter()
        res = _run(tmp_path, [_spec("suite-test-hang")], jobs=1, timeout=1.0,
                   retries=0)
        assert time.perf_counter() - t0 < 30  # killed, not slept out
        (failure,) = res.failures
        assert failure.kind == "timeout"
        assert failure.attempts == 1

    def test_pipeline_exception_not_retried(self, tmp_path, hostile_registry):
        res = _run(tmp_path, [_spec("suite-test-raise")], jobs=1, timeout=60,
                   retries=3)
        (failure,) = res.failures
        assert failure.kind == "error"
        assert failure.attempts == 1  # deterministic raise: no retry
        assert "injected pipeline explosion" in failure.message

    def test_failure_never_aborts_suite(self, tmp_path, hostile_registry):
        specs = [_spec("suite-test-crash"), _spec("suite-test-tiny")]
        res = _run(tmp_path, specs, jobs=2, timeout=60, retries=0)
        assert len(res.records) == 2
        statuses = {r["run_id"]: r["status"] for r in res.records}
        assert statuses["suite-test-tiny--plutoplus"] == "ok"
        assert statuses["suite-test-crash--plutoplus"] == "failure"

    def test_resume_skips_completed(self, tmp_path, hostile_registry):
        specs = [_spec("suite-test-tiny"), _spec("suite-test-crash")]
        manifest = SuiteManifest.create(tmp_path, specs, {})
        first = run_suite(manifest, jobs=1, timeout=60, retries=0)
        assert len(first.failures) == 1

        # resume: the ok run is skipped (its record is reused verbatim),
        # the failed run is attempted again
        reloaded = SuiteManifest.load(manifest.suite_dir)
        second = run_suite(reloaded, jobs=1, timeout=60, retries=0, resume=True)
        assert second.skipped == ["suite-test-tiny--plutoplus"]
        ok_record = next(
            r for r in second.records if r["run_id"] == "suite-test-tiny--plutoplus"
        )
        assert ok_record == first.records[0]

    def test_manifest_json_is_plain(self, tmp_path, hostile_registry):
        res = _run(tmp_path, [_spec("suite-test-tiny")], jobs=1, timeout=60)
        data = json.loads(res.manifest.path.read_text())
        assert data["runs"]["suite-test-tiny--plutoplus"]["status"] == "ok"


class TestMatrixIntegration:
    def test_motivation_specs_execute(self, tmp_path):
        # fig3 is the smallest registry workload with a nontrivial flag set
        specs = build_matrix(category="motivation", filters=["fig3-*"])
        assert len(specs) == 1 and specs[0].options.iss


def test_each_run_gets_a_fresh_process(tmp_path, hostile_registry):
    """recycle=1: one slot, three runs, three worker processes."""
    specs = [
        RunSpec(run_id=f"suite-test-tiny--{i}", workload="suite-test-tiny",
                variant="plutoplus", options=PipelineOptions(tile=False))
        for i in range(3)
    ]
    res = _run(tmp_path, specs, jobs=1, timeout=60)
    assert res.ok
    pids = [record["worker_pid"] for record in res.records]
    assert len(set(pids)) == 3 and os.getpid() not in pids


def test_the_manifest_exec_options_reach_every_run(
    tmp_path, monkeypatch, hostile_registry, compiler
):
    """The suite's one ExecutionOptions, from the manifest's config, is
    what each worker smoke-runs its kernel on; no spec names it."""
    monkeypatch.setenv("REPRO_ARTIFACT_CACHE", str(tmp_path / "kernels"))
    manifest = SuiteManifest.create(
        tmp_path, [_spec("suite-test-tiny")],
        {"exec": ExecutionOptions(backend="c").as_dict()},
    )
    res = run_suite(manifest, jobs=1, timeout=60)
    assert res.ok
    (record,) = res.records
    assert "backend" not in record["options"]
    assert record["exec_stats"]["backend"] == "c", record["exec_stats"]
    assert record["exec_stats"]["fallback_reason"] is None


def test_a_failed_native_smoke_run_fails_the_run(
    tmp_path, monkeypatch, hostile_registry, compiler
):
    """The smoke-run is no fallback: a kernel that raises raises out of the
    record, so the worker reports an error and the suite a failure."""
    from repro.exec import CKernel
    from repro.suite.runner import _ok_record

    def boom(self, *args, **kwargs):
        raise RuntimeError("injected kernel failure")

    monkeypatch.setenv("REPRO_ARTIFACT_CACHE", str(tmp_path / "kernels"))
    monkeypatch.setattr(CKernel, "run", boom)
    options = PipelineOptions()
    spec = RunSpec(
        run_id="tiny-c", workload=hostile_registry[0], variant="c", options=options
    )
    result = optimize(hostile_registry[0], options)
    with pytest.raises(RuntimeError, match="injected kernel failure"):
        _ok_record(spec, result, ExecutionOptions(backend="c"))
