"""Post-scheduling hyperplane properties: parallel / sequential marking.

A loop level is parallel when no dependence is carried there: every
dependence is either satisfied at an earlier level or has distance exactly
zero at this level (for all not-yet-ordered instance pairs).  This is the
"Misc/other: computing hyperplane properties" component of the paper's
compile-time breakdown (Section 4.1).  The same walk decides which bands
run their first two tile rows as a wavefront (``Schedule.wavefronts``).
"""

from __future__ import annotations

from repro.core.transform import Schedule
from repro.deps.ddg import DependenceGraph
from repro.deps.ordering import UNBOUNDED, Ordering
from repro.polyhedra import Constraint

__all__ = ["mark_parallelism"]


def _carries(order: Ordering, dep, expr) -> bool:
    """The row putting distance ``expr`` on ``dep`` puts some pair of it not
    ordered before at a non-zero distance — backwards too: a reversed loop
    (``-k``) runs a relaxed reduction self-dependence backwards."""
    low = order.low(dep, expr)
    if low is None:
        return False
    if low is UNBOUNDED or low != 0:
        return True
    try:
        return order.remaining[id(dep)].max_of(expr) >= 1
    except ValueError:
        return True  # no greatest distance: some pair certainly ordered


def _backward_free(order: Ordering, first: dict, second: dict) -> bool:
    """No pair not ordered yet runs backwards on the rows with distances
    ``first`` and ``second`` (a band's first two), so two tiles of one
    wavefront are equal on both rows or unordered.  Not implied by a band's
    ``permutable`` flag: the quick path's fdtd-2d band orders some pairs
    lexicographically only, and relaxed reductions are in no legality set."""
    asked: dict[tuple, bool] = {}
    for dep in order.unsatisfied():
        low = order.low(dep, first[id(dep)])
        if low is not None and (low is UNBOUNDED or low < 0):
            return False
        pairs, expr = order.remaining[id(dep)], second[id(dep)]
        key = (pairs.content_key(), expr.coeffs)
        if key not in asked:
            backward = pairs.copy()
            backward.add(Constraint(-expr - 1))
            asked[key] = backward.is_empty()
        if not asked[key]:
            return False
    return True


def mark_parallelism(
    sched: Schedule, ddg: DependenceGraph, relaxed=()
) -> dict[int, list]:
    """Fill ``row.parallel`` for every loop level of ``sched``, and
    ``sched.wavefronts``.

    Walks a fresh :class:`~repro.deps.ordering.Ordering` level by level,
    advancing it as the scheduler does (nothing the scheduler recorded is
    reused, so this pass also works on hand-built schedules).  A level is
    sequential when it orders some pair of a dependence not ordered before
    it.  At the first row of a permutable band of width >= 2 that carries a
    pair, real or relaxed, the band's start goes into ``sched.wavefronts``
    when :func:`_backward_free`, whose second-row distances the walk reuses.

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
    starts = {b.start for b in sched.bands if b.permutable and b.width >= 2}
    sched.wavefronts = set()
    ahead: dict[int, dict] = {}
    for level, row in enumerate(sched.rows):
        if row.kind == "scalar":
            order.cut({name: e.const_term for name, e in row.exprs.items()})
            continue
        dists = ahead.pop(level) if level in ahead else order.distances(row)
        carried = [
            d for d in order.unsatisfied() if _carries(order, d, dists[id(d)])
        ]
        if carried and level in starts:
            ahead[level + 1] = order.distances(sched.rows[level + 1])
            if _backward_free(order, dists, ahead[level + 1]):
                sched.wavefronts.add(level)
        order.advance(level, dists)
        row.parallel = all(id(d) in relaxed_ids for d in carried)
        hit = [d for d in carried if id(d) in relaxed_ids]
        if hit:
            relaxed_carried[level] = hit
    return relaxed_carried
