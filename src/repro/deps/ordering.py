"""Which instance pairs of each dependence the schedule rows so far order.

Pluto's iterative algorithm (Sections 3.2–3.8) rests on one notion: a loop
row orders the not-yet-ordered instance pairs of a dependence it puts at
distance >= 1, the dependence is *satisfied* at the level that orders the
rest, and a level that orders any pair *carries* it.  :class:`Ordering`
holds that state for one walk over a schedule's rows: the scheduler's band
loop, the diamond replay, the quick path's legality check and
``core.properties.mark_parallelism`` (parallel and wavefront marks) each
own one and read it only through this class.  The dependences themselves
are never written to.

``core.verify.verify_schedule`` keeps a walk of its own on purpose: it is
the independent check of what this bookkeeping decides.
"""

from __future__ import annotations

from typing import Sequence

from repro.deps.analysis import Dependence
from repro.polyhedra import AffExpr, Constraint

__all__ = ["Ordering", "UNBOUNDED", "distance"]

#: :meth:`Ordering.low` when the distance has no least value on the pairs
UNBOUNDED = object()


def distance(dep: Dependence, row) -> AffExpr:
    """The distance schedule row ``row`` puts between ``dep``'s instances."""
    return dep.distance_expr(row.expr_for(dep.source), row.expr_for(dep.target))


class Ordering:
    """Per dependence: the pairs not ordered yet, and where it was satisfied."""

    def __init__(self, deps: Sequence[Dependence]):
        self.deps = list(deps)
        #: ``id(dep)`` -> the instance pairs no row has ordered yet.  Starts
        #: as ``dep.polyhedron``, which is shared and never mutated: only
        #: copies of it are narrowed.
        self.remaining = {id(d): d.polyhedron for d in self.deps}
        #: ``id(dep)`` -> the loop level that ordered its last pairs
        self.level: dict[int, int] = {}
        #: ``id(dep)`` of the dependences a scalar row (an SCC cut) ordered
        self.by_cut: set[int] = set()

    def satisfied(self, dep: Dependence) -> bool:
        return id(dep) in self.level or id(dep) in self.by_cut

    def unsatisfied(self) -> list[Dependence]:
        return [d for d in self.deps if not self.satisfied(d)]

    def low(self, dep: Dependence, expr: AffExpr):
        """The least of ``expr`` — the :func:`distance` a row puts between
        ``dep``'s instances — over the pairs not ordered yet: ``None`` when
        no pair remains, :data:`UNBOUNDED` when there is no least value
        (some pair runs backwards without bound)."""
        try:
            return self.remaining[id(dep)].min_of(expr)
        except ValueError:
            return UNBOUNDED

    def distances(self, row) -> dict[int, AffExpr]:
        """:func:`distance` of ``row`` for every unsatisfied dependence, by
        ``id``: what :meth:`advance` takes, built once per row."""
        return {id(d): distance(d, row) for d in self.unsatisfied()}

    def advance(self, level: int, dists: dict[int, AffExpr]) -> int:
        """Account a loop row at ``level`` for every unsatisfied dependence,
        given its :meth:`distances`.

        A dependence whose remaining pairs are all at distance >= 1 (or
        none remain) is satisfied at ``level``; otherwise only its pairs at
        distance 0 stay unordered.  Dependences that ask the same question
        (equal remaining set and distance, e.g. the per-array copies of one
        stencil pattern) share one minimum; returns how many questions that
        sharing answered.
        """
        groups: dict[tuple, list] = {}
        for dep in self.unsatisfied():
            expr = dists[id(dep)]
            key = (self.remaining[id(dep)].content_key(), expr.coeffs)
            groups.setdefault(key, []).append((dep, expr))
        for members in groups.values():
            low = self.low(*members[0])
            for dep, expr in members:
                if low is None or (low is not UNBOUNDED and low >= 1):
                    self.level[id(dep)] = level
                    continue
                zero = self.remaining[id(dep)].copy()
                zero.add(Constraint(expr, equality=True))
                self.remaining[id(dep)] = zero
        return sum(len(members) - 1 for members in groups.values())

    def cut(self, position: dict[str, int]) -> int:
        """Account a scalar row (statement name -> constant, e.g. an SCC
        cut): every unsatisfied dependence whose source comes strictly
        before its target is satisfied.  Returns how many were."""
        ordered = [
            d for d in self.unsatisfied()
            if position[d.source.name] < position[d.target.name]
        ]
        self.by_cut.update(id(d) for d in ordered)
        return len(ordered)
