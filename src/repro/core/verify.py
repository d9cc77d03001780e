"""Independent legality verification of schedules.

A :class:`Schedule` is legal iff every dependence is respected: for each
dependence, every instance pair must be mapped to lexicographically
increasing time vectors.  The checker below is deliberately independent of
the scheduler's own bookkeeping (no Farkas, no satisfaction levels): it
walks the schedule level by level, shrinking each dependence's "not yet
ordered" polyhedron exactly, and reports any pair ordered backwards.

Every ``parallel`` mark is checked the same way: a row that runs in
parallel may not carry any dependence pair that reaches it — equal on every
earlier row, tile indices and wavefronts included.

Used by tests, by the diamond-tiling fallback logic, and as a user-facing
sanity tool (``repro.cli verify``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.core.reductions import detect_reductions, relax_reduction_deps
from repro.core.tiling import TiledSchedule
from repro.core.transform import Schedule
from repro.deps.analysis import Dependence, compute_dependences
from repro.deps.ddg import DependenceGraph
from repro.frontend.ir import Program
from repro.polyhedra import AffExpr, BasicSet, Constraint, Space

__all__ = ["VerificationReport", "verification_graph", "verify_schedule"]


@dataclass
class Violation:
    dependence: Dependence
    level: int
    witness: Optional[dict] = None
    #: the level is marked parallel and carries the pair ``witness``
    parallel: bool = False

    def __str__(self) -> str:
        if self.parallel:
            return f"{self.dependence} carried by parallel level {self.level}"
        return f"{self.dependence} ordered backwards at level {self.level}"


@dataclass
class VerificationReport:
    legal: bool
    violations: list[Violation] = field(default_factory=list)
    unordered: list[Dependence] = field(default_factory=list)
    #: reduction self-dependences left out (``api.verify``'s relaxation)
    relaxed: list[Dependence] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.legal

    def __str__(self) -> str:
        if self.legal:
            return "schedule is legal (all dependences strictly ordered)"
        lines = ["schedule is ILLEGAL:"]
        lines += [f"  {v}" for v in self.violations[:10]]
        lines += [f"  unordered: {d}" for d in self.unordered[:10]]
        return "\n".join(lines)


def verification_graph(
    program: Program, parallel_reductions: str = "off"
) -> tuple[DependenceGraph, list[Dependence]]:
    """Fresh dependences of ``program`` as a schedule built under
    ``parallel_reductions`` must respect them: ``(graph, relaxed)``.

    A mode other than ``"off"`` scheduled against the relaxed legality set;
    a reduction's self-dependences are discharged at emission (partial sums
    / reduction clauses), so legality is checked against the same set.
    """
    deps, relaxed = compute_dependences(program), []
    if parallel_reductions != "off":
        deps, relaxed = relax_reduction_deps(deps, detect_reductions(program))
    return DependenceGraph(program, deps), relaxed


def verify_schedule(
    sched: Union[Schedule, TiledSchedule],
    ddg: DependenceGraph,
    require_total_order: bool = True,
) -> VerificationReport:
    """Exactly verify that ``sched`` respects every dependence of ``ddg``.

    Loop and scalar rows must order every dependence: walking the rows, each
    dependence's not-yet-ordered set may never run backwards, and with
    ``require_total_order`` some row must order it *strictly* (otherwise weak
    order suffices).  A tile row ``floor(h / ts)`` orders nothing strictly —
    it only groups — but tiles run atomically, so ``h`` must be non-negative
    on every pair not strictly ordered before it.  Where a later loop row
    repeats ``h`` (a band tiled over its own hyperplanes) that loop row's
    check on the pairs reaching it is taken as the band's, as it always was;
    where none does (a diamond band scanned in source order) the tile row is
    checked itself.  A wavefront row orders what its tile rows order; a row
    marked parallel is checked by :func:`_carried_pair`.
    """
    violations: list[Violation] = []
    unordered: list[Dependence] = []
    rows = sched.rows
    grouping = {
        level for level, row in enumerate(rows)
        if row.kind == "tile" and not any(
            r.kind == "loop" and r.exprs == row.exprs for r in rows[level + 1:]
        )
    }

    for dep in ddg.deps:
        remaining: Optional[BasicSet] = dep.polyhedron
        for level, row in enumerate(rows):
            if remaining is None:
                break
            if row.kind == "wavefront":
                continue
            if row.parallel and row.kind != "scalar":
                witness = _carried_pair(rows, level, dep, remaining)
                if witness is not None:
                    violations.append(Violation(dep, level, witness, parallel=True))
                    remaining = None
                    continue
            if row.kind == "tile" and level not in grouping:
                continue
            if row.kind == "scalar":
                src_pos = row.expr_for(dep.source).const_term
                tgt_pos = row.expr_for(dep.target).const_term
                if src_pos < tgt_pos:
                    remaining = None
                elif src_pos > tgt_pos:
                    violations.append(Violation(dep, level))
                    remaining = None
                continue
            expr = dep.distance_expr(
                row.expr_for(dep.source), row.expr_for(dep.target)
            )
            try:
                mn = remaining.min_of(expr)
            except ValueError:
                mn = None  # unbounded below: a negative witness exists
                violations.append(Violation(dep, level))
                remaining = None
                continue
            if mn is None:
                remaining = None  # nothing left to order
                continue
            if mn < 0:
                witness_set = remaining.copy()
                witness_set.add(Constraint(-expr - 1))
                violations.append(
                    Violation(dep, level, witness_set.sample_point())
                )
                remaining = None
                continue
            if row.kind == "tile":
                continue  # never backwards; which pairs it separates is not known
            if mn >= 1:
                remaining = None  # every remaining pair strictly ordered
            else:
                # min == 0: pairs at distance >= 1 are ordered; the worst
                # pairs sit at exactly 0 and pass to deeper levels
                zero = remaining.copy()
                zero.add(Constraint(expr, equality=True))
                remaining = zero
        else:
            if remaining is not None and require_total_order:
                if not remaining.is_empty():
                    unordered.append(dep)

    legal = not violations and not unordered
    return VerificationReport(legal, violations, unordered)


def _carried_pair(
    rows: Sequence, level: int, dep: Dependence, remaining: BasicSet
) -> Optional[dict]:
    """A pair of ``dep`` that reaches the parallel row ``rows[level]`` and
    that the row separates, or ``None``.

    ``remaining`` holds the pairs equal on every earlier loop and scalar
    row.  If the row's distance is 0 on all of them, nothing is carried.
    Otherwise the tile indices decide: each tile row up to ``level`` (and
    each one a wavefront sums) gets a source and a target index, ``ts*T <=
    h <= ts*T + ts - 1``, earlier tile rows and wavefronts must agree, and
    the row's own distance must not be 0 — an exact integer question.
    Two cheaper questions come first, each sufficient: the one
    ``mark_parallelism`` asked of a row it marked, and, for a wavefront's
    inner row, the one it asked of the band — no pair runs
    backwards on either summed row, so two tiles of one wavefront are equal
    on both or unordered.  Their PolyCache answers are reused.
    """
    row = rows[level]

    def distance(l: int) -> AffExpr:
        return dep.distance_expr(rows[l].expr_for(dep.source), rows[l].expr_for(dep.target))

    expr = distance(level)
    try:
        low = remaining.min_of(expr)
        if low is None or (low == 0 and remaining.max_of(expr) == 0):
            return None
    except ValueError:
        pass  # unbounded: some pair is apart, the tile indices decide
    if level and rows[level - 1].kind == "wavefront" and all(
        _apart(remaining, distance(l), -1).is_empty() for l in (level, level + 1)
    ):
        return None
    tiles = sorted(
        {l for l in range(level + 1) if rows[l].kind == "tile"}
        | {l + k for l in range(level) if rows[l].kind == "wavefront" for k in (1, 2)}
    )
    names = {l: (f"T{l}.src", f"T{l}.tgt") for l in tiles}
    base = remaining.space
    space = Space(base.dims + tuple(n for l in tiles for n in names[l]), base.params)
    pairs = remaining.rebase(space)

    def var(name: str) -> AffExpr:
        return AffExpr.var(space, name)

    def index(l: int) -> AffExpr:
        """Target minus source tile index of tile row ``l``."""
        return var(names[l][1]) - var(names[l][0])

    for l in tiles:
        ts = rows[l].tile_size
        for stmt, rename, name in (
            (dep.source, dep.src_rename, names[l][0]),
            (dep.target, dep.tgt_rename, names[l][1]),
        ):
            h = rows[l].expr_for(stmt).rebase(base, rename).rebase(space)
            pairs.add(Constraint(h - ts * var(name)))
            pairs.add(Constraint(ts * var(name) + (ts - 1) - h))
    for l in range(level):
        if rows[l].kind == "tile":
            pairs.add(Constraint(index(l), equality=True))
        elif rows[l].kind == "wavefront":
            pairs.add(Constraint(index(l + 1) + index(l + 2), equality=True))
    carried = index(level) if row.kind == "tile" else expr.rebase(space)
    for sign in (1, -1):
        crossing = _apart(pairs, carried, sign)
        if not crossing.is_empty():
            return crossing.sample_point()
    return None


def _apart(pairs: BasicSet, distance: AffExpr, sign: int) -> BasicSet:
    """The pairs at ``sign * distance >= 1``."""
    out = pairs.copy()
    out.add(Constraint(distance * sign - 1))
    return out
