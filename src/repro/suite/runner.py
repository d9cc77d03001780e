"""The parallel suite engine: bounded worker slots, timeouts, retries.

Each run executes ``optimize(workload, options)`` in a forked worker of
the one pool (:class:`repro.workers.WarmWorkerPool`, also under the
serving daemon) and reports a JSON-shaped record back over a pipe.  The
pool runs at ``recycle=1``: every run gets a fresh worker, so no run sees
another run's process state (``worker_pid`` in its record served it alone).

* a worker that *reports* is recorded (``ok`` or ``error``);
* a worker that *dies silently* (signal, hard exit) is a ``crash``;
* a worker that *outlives its deadline* is killed and is a ``timeout``;

crashes and timeouts are retried on a fresh worker up to ``retries``
times; every terminal outcome — success or :class:`RunFailure` — is
persisted to the manifest immediately, on the calling thread, so the
suite degrades gracefully and ``--resume`` picks up from exactly what
finished.
"""

from __future__ import annotations

import queue
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.suite.failures import RunFailure
from repro.suite.manifest import SuiteManifest
from repro.suite.matrix import RunSpec
from repro.workers import DEFAULT_TIMEOUT, PoolJob, WarmWorkerPool, WorkerEvent

__all__ = ["SuiteResult", "run_suite"]

DEFAULT_RETRIES = 1


# -- worker side -------------------------------------------------------------

def _exec_stats_record(spec: RunSpec, result) -> Optional[dict]:
    """Compile + smoke-run the kernel on the requested native backend.

    Only for non-default backends: the run uses the workload's small
    validation sizes, so the manifest records real compile/execute numbers
    (or the fallback reason) without meaningfully extending suite time.  A
    kernel the native path cannot build already fell back inside
    :func:`repro.exec.compile_kernel`; a smoke-run that raises fails the
    run (a red job means a run degraded).
    """
    if spec.options.backend == "python":
        return None
    from repro.exec import ExecutionOptions
    from repro.runtime.arrays import random_arrays
    from repro.workloads import get_workload

    w = get_workload(spec.workload)
    params = dict(w.small_sizes) or {p: 8 for p in result.program.params}
    return result.run(
        random_arrays(result.program, params),
        params,
        exec_options=ExecutionOptions(backend=spec.options.backend),
    ).as_dict()


def _ok_record(spec: RunSpec, result) -> dict:
    schedule = result.schedule
    exec_stats = _exec_stats_record(spec, result)
    record = {
        "run_id": spec.run_id,
        "workload": spec.workload,
        "variant": spec.variant,
        "options": spec.options.as_dict(),
        "status": "ok",
        "schedule": schedule.to_dict(),
        "schedule_properties": {
            "depth": schedule.depth,
            "bands": [str(b) for b in schedule.bands],
            "max_band_width": max((b.width for b in schedule.bands), default=0),
            "parallel_levels": [
                i for i, r in enumerate(schedule.rows)
                if r.kind == "loop" and r.parallel
            ],
            "concurrent_start": any(b.concurrent_start for b in schedule.bands),
            "tiled_levels": len(result.tiled.tile_levels()),
            "used_iss": result.used_iss,
            "used_diamond": result.used_diamond,
            "scheduler_path": (
                None if result.scheduler_stats is None
                else result.scheduler_stats.scheduler_path
            ),
            "fallback_reason": (
                None if result.scheduler_stats is None
                else result.scheduler_stats.fallback_reason
            ),
            # Resolved PR-10 knobs, stamped only when active so historical
            # manifests (and their diffs) stay byte-identical at defaults.
            **(
                {"rar": True}
                if spec.options.rar
                else {}
            ),
            **(
                {
                    "parallel_reductions": spec.options.parallel_reductions,
                    "reduction_levels": result.tiled.reduction_levels(),
                }
                if spec.options.parallel_reductions != "off"
                else {}
            ),
        },
        "timing": result.timing.as_dict(),
        "scheduler_stats": (
            None if result.scheduler_stats is None
            else result.scheduler_stats.as_dict()
        ),
        "dep_stats": (
            None if result.dep_stats is None else result.dep_stats.as_dict()
        ),
    }
    if exec_stats is not None:
        record["exec_stats"] = exec_stats
    return record


def _run_one(spec_dict: dict) -> dict:
    """Worker job body (under :func:`repro.workers.warm_worker_main`)."""
    from repro.pipeline import optimize

    spec = RunSpec.from_dict(spec_dict)
    result = optimize(spec.workload, spec.options)
    return _ok_record(spec, result)


# -- parent side -------------------------------------------------------------

@dataclass
class _Attempt:
    """One run attempt (carries the retry bookkeeping)."""

    spec: RunSpec
    attempt: int
    elapsed_before: float      # wall time burned by earlier attempts


@dataclass
class SuiteResult:
    """What a suite execution produced (also all persisted on disk)."""

    manifest: SuiteManifest
    records: list[dict] = field(default_factory=list)
    failures: list[RunFailure] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def run_suite(
    manifest: SuiteManifest,
    *,
    jobs: int = 1,
    timeout: float = DEFAULT_TIMEOUT,
    retries: int = DEFAULT_RETRIES,
    resume: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> SuiteResult:
    """Execute the manifest's matrix; never raises for a failing run.

    ``retries`` bounds *re*-attempts after a crash or timeout (so a run is
    tried at most ``1 + retries`` times; pipeline exceptions are
    deterministic and are not retried).  With ``resume``, runs already
    recorded ``ok`` in the manifest are skipped.
    """
    say = progress or (lambda msg: None)
    t_start = time.perf_counter()
    out = SuiteResult(manifest)

    done = manifest.completed_ok() if resume else set()
    pending: list[_Attempt] = []
    for spec in manifest.specs:
        if spec.run_id in done:
            out.skipped.append(spec.run_id)
            out.records.append(manifest.load_record(spec.run_id))
        else:
            pending.append(_Attempt(spec, 1, 0.0))
    if out.skipped:
        say(f"resume: skipping {len(out.skipped)} completed run(s)")

    # backlog=runs admits every first attempt at once; a retry is submitted
    # only after its predecessor settled, so try_submit never refuses one
    runs = len(pending)
    pool = WarmWorkerPool(
        min(jobs, runs), timeout=timeout, backlog=runs,
        recycle=1, target=_run_one, preload=None,
    )
    settled: queue.SimpleQueue = queue.SimpleQueue()  # (attempt, event)

    def submit(attempt: _Attempt) -> None:
        pool.try_submit(PoolJob(
            attempt.spec.run_id, attempt.spec.to_dict(),
            lambda ev: settled.put((attempt, ev)),
        ))

    def settle(run: _Attempt, ev: WorkerEvent) -> None:
        """A crash/timeout/error outcome: retry or record a RunFailure."""
        elapsed = run.elapsed_before + ev.elapsed
        retryable = ev.kind in ("crash", "timeout") and run.attempt <= retries
        if retryable:
            say(f"retry {run.spec.run_id} after {ev.kind} "
                f"(attempt {run.attempt} of {1 + retries})")
            submit(_Attempt(run.spec, run.attempt + 1, elapsed))
            return
        failure = RunFailure(
            run_id=run.spec.run_id,
            workload=run.spec.workload,
            variant=run.spec.variant,
            kind=ev.kind,
            message=ev.payload,
            attempts=run.attempt,
            elapsed=elapsed,
        )
        record = {
            "run_id": run.spec.run_id,
            "workload": run.spec.workload,
            "variant": run.spec.variant,
            "options": run.spec.options.as_dict(),
            "status": "failure",
            "attempts": run.attempt,
            "elapsed": elapsed,
            "failure": failure.to_dict(),
        }
        manifest.write_record(record)
        out.failures.append(failure)
        out.records.append(record)
        say(f"FAIL {failure}")

    def finish_ok(run: _Attempt, ev: WorkerEvent) -> None:
        elapsed = run.elapsed_before + ev.elapsed
        record = ev.payload
        record["attempts"] = run.attempt
        record["elapsed"] = elapsed
        record["worker_pid"] = ev.pid
        manifest.write_record(record)
        out.records.append(record)
        say(f"ok {run.spec.run_id} in {elapsed:.1f}s "
            f"(attempt {run.attempt}, pid {ev.pid})")

    if pending:
        pool.start()
        say(f"queued {runs} run(s) on {pool.jobs} worker(s)")
    try:
        for attempt in pending:
            submit(attempt)
        # every run ends in exactly one record; a retry adds none
        while len(out.records) < len(out.skipped) + runs:
            run, ev = settled.get()
            if ev.kind == "ok":
                finish_ok(run, ev)
            else:
                settle(run, ev)
    finally:
        pool.stop()  # interrupted: leave no orphans

    out.wall_seconds = time.perf_counter() - t_start
    return out
