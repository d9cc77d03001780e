"""Diamond tiling: tiling bands with concurrent start (Bandishti et al. [2]).

For time-iterated stencils the standard Pluto band (e.g. ``(t, 2t+i)``)
yields tiles with pipelined startup; diamond tiling instead picks band
hyperplanes whose *sum* is parallel to the time face ``f`` (e.g. ``(t+i,
t-i)``), so all tiles along the first tile dimension can start concurrently
(Fig. 4f-g).  The paper enables this as ``--partlbtile`` for the periodic
benchmarks; after index-set splitting, finding the required hyperplanes for
the reversed half needs Pluto+'s negative coefficients — classic Pluto's ILP
is infeasible here, which is exactly why it cannot time-tile periodic
stencils (Table 3, lower half; Fig. 6).

Procedure (the [2] construction, specialized per this paper's usage):

1. identify the concurrent-start face ``f`` = the common time iterator;
2. find ``n-1`` hyperplanes by the usual Pluto/Pluto+ ILP with extra
   constraints: distances bounded by a constant (``u = 0``), ``c_t >= 1``,
   and a non-zero space component;
3. complete the band with ``h_n = k*f - sum(h_i)`` for the smallest ``k``
   making ``h_n`` legal (checked exactly against every dependence);
4. order same-iteration statement pairs with a trailing scalar dimension.

Returns ``None`` whenever any step fails; callers fall back to the standard
band search.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.names import c_name, u_name
from repro.core.scheduler import PlutoScheduler, SchedulerOptions, SchedulerStats
from repro.core.transform import Band, Schedule, ScheduleRow
from repro.deps.ddg import DependenceGraph
from repro.deps.ordering import UNBOUNDED, Ordering, distance
from repro.frontend.ir import Program
from repro.ilp import ILPModel
from repro.polyhedra import AffExpr

__all__ = ["find_diamond_schedule"]


def _common_time_iterator(program: Program) -> Optional[str]:
    """The shared outermost iterator, required in every statement."""
    iters = [s.space.dims for s in program.statements]
    if not iters or not all(dims for dims in iters):
        return None
    first = iters[0][0]
    if all(dims[0] == first for dims in iters):
        return first
    return None


def find_diamond_schedule(
    program: Program,
    ddg: DependenceGraph,
    options: Optional[SchedulerOptions] = None,
    stats: Optional[SchedulerStats] = None,
    warm=None,
) -> Optional[Schedule]:
    """Search for a full-depth diamond band; ``None`` if not applicable.

    When ``stats`` is given, solver counters from the internal scheduler
    accumulate into it (the pipeline's ``--stats`` plumbing).  ``warm`` is
    an optional cross-request replay context
    (:class:`repro.core.skeleton.WarmStart`); the constrained per-level
    solves participate under their own solve-key tag, so diamond and
    standard-band records never collide.
    """
    options = options or SchedulerOptions()
    time_iter = _common_time_iterator(program)
    if time_iter is None:
        return None
    ndim = program.statements[0].dim
    if any(s.dim != ndim for s in program.statements) or ndim < 2:
        return None

    scheduler = PlutoScheduler(program, ddg, options, warm=warm)
    if stats is not None:
        scheduler.stats = stats
    sched = Schedule(program)
    active = list(ddg.deps)

    for _ in range(ndim - 1):
        row = _find_constrained_hyperplane(scheduler, sched, active, time_iter)
        if row is None:
            return None
        sched.add_row(row)
        scheduler.stats.hyperplanes_found += 1

    last = _complete_band(program, ddg, sched, time_iter, ndim)
    if last is None:
        return None
    sched.add_row(last)
    if not sched.full_rank():
        return None

    # Replay satisfaction over the diamond rows through a fresh Ordering.
    scheduler.order = order = Ordering(ddg.deps)
    for level in range(sched.depth):
        scheduler._update_satisfaction(sched, level)
    sched.bands.append(Band(0, sched.depth - 1, permutable=True, concurrent_start=True))

    left = order.unsatisfied()
    if not left:
        sched.finalize_order()
        return sched
    # Same-iteration inter-statement deps: order by original position.
    positions = {s.name: i for i, s in enumerate(program.statements)}
    if order.cut(positions) < len(left):
        return None
    sched.add_scalar_row(positions)
    return sched


def _find_constrained_hyperplane(
    scheduler: PlutoScheduler,
    sched: Schedule,
    active: Sequence,
    time_iter: str,
) -> Optional[ScheduleRow]:
    """One band hyperplane with the concurrent-start side constraints."""
    program = scheduler.program
    plus = scheduler.options.algorithm == "plutoplus"
    b = scheduler.options.coeff_bound

    def constrain(model: ILPModel) -> bool:
        # distances bounded by a constant: u = 0
        for p in program.params:
            model.add_constraint({u_name(p): -1}, 0)  # u <= 0 (u >= 0 by bounds)
        for s in program.statements:
            # time coefficient strictly positive: h . f >= 1
            model.add_constraint({c_name(s, time_iter): 1}, -1)
            # non-zero space component (not parallel to the face).  For Pluto+
            # reuse the radix trick over the space dims; classic Pluto's space
            # coefficients are non-negative so their sum >= 1 suffices.
            space_dims = [d for d in s.space.dims if d != time_iter]
            if not space_dims:
                return False
            if plus:
                radix = b + 1
                big_m = radix ** len(space_dims)
                var = f"ds.{s.name}"
                model.add_variable(var, lower=0, upper=1)
                combo = {}
                weight = 1
                for d in space_dims:
                    combo[c_name(s, d)] = weight
                    weight *= radix
                pos = dict(combo)
                pos[var] = big_m
                model.add_constraint(pos, -1)
                neg = {k: -v for k, v in combo.items()}
                neg[var] = -big_m
                model.add_constraint(neg, big_m - 1)
            else:
                model.add_constraint({c_name(s, d): 1 for d in space_dims}, -1)
        return True

    # The side constraints are fully determined by the model inputs plus
    # (time_iter); the "diamond" tag keeps these records apart from the
    # standard band search over the same state.
    return scheduler.find_hyperplane(
        sched, active, constrain=constrain, key_extra=["diamond", time_iter]
    )


def _complete_band(
    program: Program,
    ddg: DependenceGraph,
    sched: Schedule,
    time_iter: str,
    ndim: int,
) -> Optional[ScheduleRow]:
    """``h_n = k*f - sum(h_i)``, smallest legal ``k`` (checked exactly)."""
    for k in range(1, 4 * ndim + 1):
        exprs = {}
        for s in program.statements:
            acc = AffExpr.var(s.space, time_iter) * k
            for row in sched.rows:
                acc = acc - row.expr_for(s)
            exprs[s.name] = acc
        if all(not e.terms() for e in exprs.values()):
            continue  # degenerate (parallel to existing rows)
        row = ScheduleRow("loop", exprs)
        if _row_is_legal(ddg, row) and _row_independent(program, sched, row):
            return row
    return None


def _row_is_legal(ddg: DependenceGraph, row: ScheduleRow) -> bool:
    """No instance pair of any dependence runs backwards on ``row``."""
    order = Ordering(ddg.deps)
    for d in ddg.deps:
        low = order.low(d, distance(d, row))
        if low is UNBOUNDED or (low is not None and low < 0):
            return False
    return True


def _row_independent(program: Program, sched: Schedule, row: ScheduleRow) -> bool:
    from repro.linalg import FMatrix

    for s in program.statements:
        rows = sched.h_rows(s)
        cand = [row.expr_for(s).coeff_of(d) for d in s.space.dims]
        if not any(cand):
            return False
        if rows and FMatrix(rows + [cand]).rank() != len(rows) + 1:
            return False
    return True
