"""Staged driver: ``repro.pipeline._optimize`` call by call, one span each.

This PR may not touch ``src/``, so "tracing" means making the same public
calls ``optimize()`` makes, in the same order, from here:

    compute_dependences -> index_set_split -> compute_dependences ->
    DependenceGraph -> [skeleton lookup] -> attempt_quick_schedule /
    find_diamond_schedule / PlutoScheduler.schedule -> [skeleton merge] ->
    mark_parallelism -> tile_schedule -> generate_python

Layers the harness cannot reach from outside (``ilp`` inside the scheduler,
``polyhedra`` inside ``deps``) are read from the ``SchedulerStats`` /
``DepStats`` the calls fill, and labelled *reported*.  The fidelity gate
(:func:`traced_request`) keeps this driver from drifting away from
``_optimize`` unnoticed; a later issue replaces it with spans inside the
program.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

from repro.codegen import generate_python
from repro.core.diamond import find_diamond_schedule
from repro.core.iss import index_set_split
from repro.core.properties import mark_parallelism
from repro.core.quick import attempt_quick_schedule, fusion_groups_of
from repro.core.scheduler import PlutoScheduler, SchedulerStats
from repro.core.skeleton import (
    WarmStart,
    skeleton_store_from_env,
    structural_fingerprint,
)
from repro.core.tiling import TiledSchedule, tile_schedule, untiled_schedule
from repro.core.transform import Schedule
from repro.deps import DependenceGraph, DepStats, compute_dependences
from repro.frontend.ir import Program
from repro.frontend.serialize import program_to_dict
from repro.pipeline import OptimizationResult, PipelineOptions
from repro.polyhedra.cache import cache_disabled

from benchmarks.e2e.spans import Tracer

__all__ = ["StagedResult", "staged_optimize", "traced_request"]


@dataclass
class StagedResult:
    """What the staged pass produced: ``OptimizationResult``'s fields minus
    the timing breakdown (the spans are the timing)."""

    program: Program
    schedule: Schedule
    tiled: TiledSchedule
    code: object
    scheduler_stats: SchedulerStats
    dep_stats: DepStats
    used_iss: bool
    used_diamond: bool
    seconds: float


def staged_optimize(
    program: Program, options: PipelineOptions, tracer: Tracer, **attrs
) -> StagedResult:
    """One request through the pipeline's stages, a span around each call."""
    unsupported = [
        name for name, on in (
            ("rar", options.rar),
            ("parallel_reductions", options.parallel_reductions != "off"),
            ("l2tile", options.l2tile),
            ("intra_tile", options.intra_tile),
        ) if on
    ]
    if unsupported:
        raise NotImplementedError(
            f"staged driver does not cover {unsupported}: no benchmark "
            f"workload enables them"
        )
    guard = nullcontext() if options.deps_cache else cache_disabled()
    with guard, tracer.span("optimize", **attrs) as root:
        out = _stages(program, options, tracer)
    out.seconds = root["t1"] - root["t0"]
    return out


def _stages(
    program: Program, options: PipelineOptions, tracer: Tracer
) -> StagedResult:
    span = tracer.span
    dep_stats = DepStats()
    with span("deps.compute"):
        deps = compute_dependences(program, dep_stats)

    used_iss = False
    work = program
    if options.iss:
        with span("core.iss"):
            work, used_iss = index_set_split(program, deps)
        if used_iss:
            with span("deps.compute", post_iss=True):
                deps = compute_dependences(work, dep_stats)

    with span("deps.ddg"):
        ddg = DependenceGraph(work, deps, stats=dep_stats)
    sched_opts = options.scheduler_options()

    stats = SchedulerStats()
    stats.scheduler_mode = options.scheduler

    store = skeleton_store_from_env()
    fingerprint = prior = warm = None
    if store is not None:
        with span("core.skeleton.lookup"):
            fingerprint = structural_fingerprint(
                program_to_dict(program), options.as_dict()
            )
            prior = store.get(fingerprint)
        warm = WarmStart(prior.get("solves") if prior else None)

    schedule = None
    used_diamond = False
    if options.scheduler in ("quick", "auto"):
        with span("core.quick"):
            schedule = attempt_quick_schedule(
                work, ddg, sched_opts,
                mode=options.scheduler, diamond=options.diamond, stats=stats,
            )
    if schedule is not None:
        stats.scheduler_path = "quick"
    else:
        stats.scheduler_path = (
            "exact" if options.scheduler == "exact" else "fallback"
        )
        if options.diamond:
            with span("core.diamond"):
                schedule = find_diamond_schedule(
                    work, ddg, sched_opts, stats=stats, warm=warm
                )
            used_diamond = schedule is not None
        if schedule is None:
            with span("core.scheduler"):
                scheduler = PlutoScheduler(work, ddg, sched_opts, warm=warm)
                scheduler.stats = stats
                schedule = scheduler.schedule()
    stats.fusion_groups = fusion_groups_of(schedule)

    if store is not None:
        stats.structural_warm_start = warm.hits
        stats.structural_path = (
            "miss" if prior is None
            else ("hit" if warm.misses == 0 else "fallback")
        )
        if warm.dirty or prior is None:
            with span("core.skeleton.merge"):
                store.merge(
                    fingerprint,
                    warm.solves,
                    farkas=warm.farkas,
                    meta={
                        "program": program.name,
                        "scheduler_path": stats.scheduler_path,
                        "fallback_reason": stats.fallback_reason,
                        "used_diamond": used_diamond,
                        "depth": schedule.depth,
                        "bands": [str(b) for b in schedule.bands],
                    },
                )

    with span("core.properties"):
        mark_parallelism(schedule, ddg)
    with span("core.tiling"):
        if options.tile:
            tiled = tile_schedule(
                schedule,
                tile_size=options.tile_size,
                min_band_width=options.min_band_width,
            )
        else:
            tiled = untiled_schedule(schedule)
    with span("codegen.python_emit"):
        code = generate_python(tiled)
        _ = code.python_source

    return StagedResult(
        program=work, schedule=schedule, tiled=tiled, code=code,
        scheduler_stats=stats, dep_stats=dep_stats,
        used_iss=used_iss, used_diamond=used_diamond, seconds=0.0,
    )


def traced_request(
    tracer: Tracer,
    request_id: str,
    program: Program,
    options: PipelineOptions,
    result: OptimizationResult,
    **attrs,
) -> StagedResult:
    """One request of the traced pass, behind the fidelity gate: its staged
    outputs must be byte-identical to ``result``, what one ``optimize()``
    call made of the same request.  Fails loudly otherwise, so this driver
    cannot drift from ``_optimize`` unnoticed."""
    tracer.request_id = request_id
    staged = staged_optimize(program, options, tracer, **attrs)
    wrong = [
        name for name, a, b in (
            ("schedule", staged.schedule.to_dict(), result.schedule.to_dict()),
            ("tiled", staged.tiled.to_dict(), result.tiled.to_dict()),
            ("python_source", staged.code.python_source, result.code.python_source),
        ) if a != b
    ]
    if wrong:
        raise RuntimeError(
            f"staged driver drifted from optimize() on {request_id}: {wrong}"
        )
    return staged
