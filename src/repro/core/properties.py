"""Post-scheduling hyperplane properties: parallel / sequential marking.

A loop level is parallel when no dependence is carried there: every
dependence is either satisfied at an earlier level or has distance exactly
zero at this level (for all not-yet-ordered instance pairs).  This is the
"Misc/other: computing hyperplane properties" component of the paper's
compile-time breakdown (Section 4.1).
"""

from __future__ import annotations

from repro.core.transform import Schedule
from repro.deps.ddg import DependenceGraph
from repro.deps.ordering import UNBOUNDED, Ordering

__all__ = ["mark_parallelism"]


def _carries(order: Ordering, dep, expr) -> bool:
    """The row putting distance ``expr`` on ``dep`` orders some pair of it
    not ordered before."""
    low = order.low(dep, expr)
    if low is None:
        return False
    if low is UNBOUNDED or low >= 1:
        return True
    try:
        return order.remaining[id(dep)].max_of(expr) >= 1
    except ValueError:
        return True  # no greatest distance: some pair certainly ordered


def mark_parallelism(
    sched: Schedule, ddg: DependenceGraph, relaxed=()
) -> dict[int, list]:
    """Fill ``row.parallel`` for every loop level of ``sched``.

    Walks a fresh :class:`~repro.deps.ordering.Ordering` level by level,
    advancing it as the scheduler does (nothing the scheduler recorded is
    reused, so this pass also works on hand-built schedules).  A level is
    sequential when it orders some pair of a dependence not ordered before
    it.

    ``relaxed`` — relaxed reduction self-dependences excluded from the DDG
    (:mod:`repro.core.reductions`) — walk along but never influence
    ``row.parallel``; the return value maps each level index to the relaxed
    dependences it would carry, so the pipeline can tag reduction-parallel
    rows for the emitters.  Empty when ``relaxed`` is empty (the default
    path).
    """
    order = Ordering(list(ddg.deps) + list(relaxed))
    relaxed_ids = {id(d) for d in relaxed}
    relaxed_carried: dict[int, list] = {}
    for level, row in enumerate(sched.rows):
        if row.kind == "scalar":
            order.cut({name: e.const_term for name, e in row.exprs.items()})
            continue
        dists = order.distances(row)
        carried = [
            d for d in order.unsatisfied() if _carries(order, d, dists[id(d)])
        ]
        order.advance(level, dists)
        row.parallel = all(id(d) in relaxed_ids for d in carried)
        hit = [d for d in carried if id(d) in relaxed_ids]
        if hit:
            relaxed_carried[level] = hit
    return relaxed_carried
