"""The quick scheduler: candidate permutation rows instead of per-level ILPs.

:class:`QuickScheduler` subclasses :class:`~repro.core.scheduler.PlutoScheduler`
and inherits its entire band-growth loop — active-dependence tracking, the
run's :class:`~repro.deps.ordering.Ordering` (exact satisfaction over
shrinking "remaining" polyhedra), SCC fusion cuts (``--fuse``), the
schedule's rank accounting, and the final total-order dimension.
Only :meth:`find_hyperplane` is replaced: instead of building and lexmin-
solving an ILP, it proposes *candidate rows* — unit dimension vectors chosen
by dimension matching and nesting position — and accepts the first one that
is exactly legal against every active dependence.

Legality of a candidate is asked of the same ``Ordering`` the exact
scheduler advances: :meth:`~repro.deps.ordering.Ordering.low`, the minimum
of the dependence distance over the dependence's remaining pairs, must be
``>= 0`` (weak legality keeps the band permutable; the shared
``Ordering.advance`` retires dependences that become strongly satisfied).  These minima are rational LPs memoized by the
polyhedral cache — orders of magnitude cheaper than the per-level lexmin
ILPs they replace, and sound: a schedule assembled from accepted rows is
legal by construction, so it always passes ``repro verify``.

When no candidate is legal the band closes / an SCC cut is taken exactly as
in the exact scheduler; if the loop wedges (a permutation-free program such
as a stencil that needs skewing), the inherited ``SchedulerError`` surfaces
and the driver falls back to the exact Pluto+ search.
"""

from __future__ import annotations

import time
from typing import Iterator, Optional, Sequence

from repro.core.quick.matching import DimensionMatching
from repro.core.scheduler import PlutoScheduler, SchedulerOptions
from repro.core.transform import Schedule, ScheduleRow
from repro.deps.analysis import Dependence
from repro.deps.ddg import DependenceGraph
from repro.deps.ordering import UNBOUNDED, distance
from repro.frontend.ir import Program
from repro.polyhedra import AffExpr

__all__ = ["QuickScheduler"]

#: Per-level cap on candidate rows tried before giving up on the level.
#: Candidates are cheap (one LP minimum per active dependence) but the
#: enumeration must stay linear in program size — this is the safety valve.
MAX_CANDIDATES_PER_LEVEL = 64


class QuickScheduler(PlutoScheduler):
    """Pluto's scheduling loop with permutation candidates in place of ILPs."""

    def __init__(
        self,
        program: Program,
        ddg: DependenceGraph,
        options: Optional[SchedulerOptions] = None,
    ):
        super().__init__(program, ddg, options)
        self._matching = DimensionMatching.build(program, ddg)

    # -- the replaced hyperplane search ------------------------------------

    def find_hyperplane(
        self, sched: Schedule, active: Sequence[Dependence]
    ) -> Optional[ScheduleRow]:
        t0 = time.perf_counter()
        try:
            tried = 0
            for assign in self._assignments(sched):
                if tried >= MAX_CANDIDATES_PER_LEVEL:
                    return None
                tried += 1
                self.stats.quick_candidates += 1
                row = self._row_for(assign)
                if self._row_is_legal(row, active):
                    return row
            return None
        finally:
            self.stats.quick_seconds += time.perf_counter() - t0

    # -- candidate enumeration ---------------------------------------------

    def _unused_dims(self, sched: Schedule) -> dict[str, list[int]]:
        """Original dimensions not yet consumed by an earlier quick row.

        Quick rows are always unit vectors, so the span of ``h_rows`` is
        exactly the set of dimension indices those rows touch.
        """
        out: dict[str, list[int]] = {}
        for s in self.program.statements:
            used: set[int] = set()
            for hrow in sched.h_rows(s):
                used.update(k for k, c in enumerate(hrow) if c)
            out[s.name] = [k for k in range(s.dim) if k not in used]
        return out

    def _assignments(self, sched: Schedule) -> Iterator[dict[str, int]]:
        """Candidate ``{statement name: dim index}`` assignments, best first.

        Three generations, deduplicated:

        1. *matched* — one class of matched dimensions at a time, outermost
           first: every statement with an unused dimension in the class
           advances it together (the fusion-profitable candidates);
        2. *positional* — the k-th unused dimension of every statement
           simultaneously (original nesting order, the common case for
           single-statement programs and identical nests);
        3. *solo* — one statement, one dimension (lets a group make rank
           progress when no shared dimension is legal).
        """
        unused = self._unused_dims(sched)
        pending = {
            s.name
            for s in self.program.statements
            if unused[s.name] and sched.rank[s.name] < s.dim
        }
        if not pending:
            return
        seen: set[frozenset] = set()

        def emit(raw: dict[str, int]) -> Optional[dict[str, int]]:
            assign = {
                name: k for name, k in raw.items()
                if name in pending and k in set(unused[name])
            }
            if not assign:
                return None
            key = frozenset(assign.items())
            if key in seen:
                return None
            seen.add(key)
            return assign

        for members in self._matching.classes:
            raw = {}
            for name, dims in members.items():
                avail = [k for k in dims if name in pending and k in set(unused[name])]
                if avail:
                    raw[name] = avail[0]
            a = emit(raw)
            if a:
                yield a

        depth = max((len(unused[name]) for name in pending), default=0)
        for k in range(depth):
            a = emit({
                name: unused[name][k]
                for name in pending
                if len(unused[name]) > k
            })
            if a:
                yield a

        for s in self.program.statements:
            if s.name not in pending:
                continue
            for k in unused[s.name]:
                a = emit({s.name: k})
                if a:
                    yield a

    def _row_for(self, assign: dict[str, int]) -> ScheduleRow:
        exprs: dict[str, AffExpr] = {}
        for s in self.program.statements:
            k = assign.get(s.name)
            if k is None:
                exprs[s.name] = AffExpr.const(s.space, 0)
            else:
                exprs[s.name] = AffExpr.var(s.space, s.space.dims[k])
        return ScheduleRow("loop", exprs)

    # -- exact validation ---------------------------------------------------

    def _row_is_legal(
        self, row: ScheduleRow, active: Sequence[Dependence]
    ) -> bool:
        """Exact weak legality: distance >= 0 over every active dependence's
        remaining (not-yet-ordered) instance pairs."""
        for dep in active:
            self.stats.quick_validations += 1
            low = self.order.low(dep, distance(dep, row))
            if low is UNBOUNDED or (low is not None and low < 0):
                return False
        return True
