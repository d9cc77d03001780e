"""The quick-vs-exact arbitration and the fallback contract.

:func:`attempt_quick_schedule` is what the pipeline calls for
``scheduler="quick"`` and ``scheduler="auto"``.  The contract:

* the returned schedule, when not ``None``, is exactly legal — every
  candidate row was validated against the precise dependence relations, so
  ``repro verify`` passes unconditionally;
* ``None`` means "run the exact Pluto+ search", and
  ``stats.fallback_reason`` says why:

  - ``"diamond-requested"`` — ``auto`` never shadows the diamond-tiling
    search (concurrent start needs skewing, which permutations cannot
    express); forced ``quick`` still attempts a permutation schedule;
  - ``"no-legal-permutation"`` — the candidate search wedged: some
    dependence needs a non-permutation hyperplane (skewing, reversal);
  - ``"untilable-band"`` — ``auto`` only: the heuristic terminated but its
    bound is worse than what the exact search is expected to reach (no
    permutable band of width >= 2 although some statement has >= 2 loop
    dimensions, i.e. the schedule cannot be meaningfully tiled).  Forced
    ``quick`` skips this gate and keeps the legal permutation schedule.

Because every scheduler run owns its :class:`~repro.deps.ordering.Ordering`
and never writes to the dependence graph, an ``auto`` run that falls back
is bit-compatible with ``scheduler="exact"`` — same schedule, same
generated code.
"""

from __future__ import annotations

from typing import Optional

from repro.core.quick.scheduler import QuickScheduler
from repro.core.scheduler import SchedulerError, SchedulerOptions, SchedulerStats
from repro.core.transform import Schedule
from repro.deps.ddg import DependenceGraph
from repro.frontend.ir import Program

__all__ = ["attempt_quick_schedule", "fusion_groups_of", "quick_bound_shortfall"]


def quick_bound_shortfall(program: Program, sched: Schedule) -> Optional[str]:
    """The ``auto`` quality bound: ``None`` when the quick schedule is kept.

    A permutation schedule is accepted when it preserves tilability: some
    permutable band of width >= 2 whenever any statement has >= 2 loop
    dimensions.  Stencils that need skewing terminate with width-1 bands
    and are sent to the exact search instead.
    """
    max_dim = max((s.dim for s in program.statements), default=0)
    widest = max((b.width for b in sched.bands), default=0)
    if max_dim >= 2 and widest < 2:
        return "untilable-band"
    return None


def fusion_groups_of(sched: Schedule) -> list[list[str]]:
    """Statement fusion decisions encoded by the schedule.

    Statements are fused when they share every scalar (SCC-ordering)
    coordinate above the innermost loop level; the trailing total-order
    dimension (the 2d+1 "beta" suffix) does not split groups.
    """
    loop_levels = [i for i, r in enumerate(sched.rows) if r.kind == "loop"]
    last_loop = max(loop_levels, default=-1)
    groups: dict[tuple, list[str]] = {}
    for s in sched.program.statements:
        key = tuple(
            row.expr_for(s).const_term
            for i, row in enumerate(sched.rows)
            if row.kind == "scalar" and i < last_loop
        )
        groups.setdefault(key, []).append(s.name)
    return [groups[k] for k in sorted(groups)]


def attempt_quick_schedule(
    program: Program,
    ddg: DependenceGraph,
    options: Optional[SchedulerOptions],
    *,
    mode: str,
    diamond: bool,
    stats: SchedulerStats,
) -> Optional[Schedule]:
    """Try the permutation heuristic; ``None`` mandates the exact fallback."""
    if diamond and mode == "auto":
        stats.fallback_reason = "diamond-requested"
        return None

    scheduler = QuickScheduler(program, ddg, options)
    scheduler.stats = stats
    try:
        sched = scheduler.schedule()
    except SchedulerError:
        stats.fallback_reason = "no-legal-permutation"
        return None

    if mode == "auto":
        reason = quick_bound_shortfall(program, sched)
        if reason is not None:
            stats.fallback_reason = reason
            return None
    return sched
