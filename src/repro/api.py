"""The supported public API surface.

Everything exported here — and re-exported from :mod:`repro` — is stable:
signatures and serialized shapes only change with a major version bump and
a documented migration.  Deep imports (``repro.pipeline``, ``repro.core.*``,
``repro.polyhedra.*``, ...) keep working but are internal wiring and may be
reorganized freely between versions; see ``docs/API.md``.

    from repro import api

    result = api.optimize("heat-1dp")
    report = api.verify(result)
    deps = api.analyze_dependences("heat-1dp")
    names = api.list_workloads("periodic")

Scheduling strategy is a :class:`PipelineOptions` knob: the kw-only
``scheduler`` field selects the exact per-level ILP search (``"exact"``,
the default), the quick fusion + dimension-matching heuristic
(``"quick"``), or the heuristic with exact fallback (``"auto"``)::

    result = api.optimize("gemm", api.PipelineOptions(scheduler="auto"))
    result.scheduler_stats.scheduler_path   # "quick" | "fallback" | "exact"

Execution is backend-neutral: ``result.run(arrays, params, exec_options=)``
dispatches on :class:`ExecutionOptions`' kw-only ``backend`` (``"python"``,
the default and historical behavior; ``"c"`` compiles the emitted C with the
system compiler and runs at native speed), returning an :class:`ExecStats`
describing what actually ran::

    result = api.optimize("gemm")
    stats = result.run(arrays, params, exec_options=api.ExecutionOptions(backend="c"))
    stats.backend            # "c", or "python" after a graceful fallback
    stats.fallback_reason    # why, when it fell back
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.verify import VerificationReport, verification_graph, verify_schedule
from repro.exec import ExecStats, ExecutionOptions
from repro.frontend.ir import Program
from repro.pipeline import (
    OptimizationResult,
    PipelineOptions,
    TimingBreakdown,
    optimize,
    resolve_program,
)

__all__ = [
    "ExecStats",
    "ExecutionOptions",
    "OptimizationResult",
    "PipelineOptions",
    "TimingBreakdown",
    "VerificationReport",
    "analyze_dependences",
    "list_workloads",
    "optimize",
    "verify",
]


def analyze_dependences(program: Union[Program, str]):
    """Compute the dependence polyhedra of ``program``.

    ``program`` may be a :class:`Program` or a registered workload name.
    Returns the list of :class:`repro.deps.Dependence` edges.
    """
    from repro.deps import compute_dependences

    return compute_dependences(resolve_program(program))


def verify(
    result_or_schedule,
    program: Optional[Union[Program, str]] = None,
    *,
    parallel_reductions: str = "off",
) -> VerificationReport:
    """Independently check schedule legality against fresh dependences.

    Accepts an :class:`OptimizationResult` (verifies its *tiled* schedule —
    the rows the generated code executes, whose point rows need not be the
    schedule's — against its post-ISS program) or a bare
    ``Schedule``/``TiledSchedule`` plus the ``program`` it schedules.  The
    check never trusts scheduler bookkeeping: dependences are recomputed
    from the program, and reduction self-dependences are relaxed (listed in
    the report's ``relaxed``) exactly when the schedule was built relaxed:
    a result's ``options.parallel_reductions``, a bare schedule's
    ``parallel_reductions``.  ``repro verify`` checks through here.
    """
    mode = parallel_reductions
    if isinstance(result_or_schedule, OptimizationResult):
        program_obj = result_or_schedule.program
        schedule = result_or_schedule.tiled
        if result_or_schedule.options is not None:
            mode = result_or_schedule.options.parallel_reductions
    else:
        if program is None:
            raise TypeError(
                "verify(schedule, program=...) requires the program when not "
                "passed an OptimizationResult"
            )
        program_obj = resolve_program(program)
        schedule = result_or_schedule
    ddg, relaxed = verification_graph(program_obj, mode)
    report = verify_schedule(schedule, ddg)
    report.relaxed = relaxed
    return report


def list_workloads(category: Optional[str] = None) -> list[str]:
    """Names of registered workloads, optionally filtered by category
    (``"polybench"``, ``"periodic"``, ``"motivation"``)."""
    from repro.workloads import all_workloads

    return [w.name for w in all_workloads(category)]
