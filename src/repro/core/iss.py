"""Index set splitting (ISS) for long (periodic/symmetric) dependences.

Implements the mid-point splitting of Bondhugula et al. (PACT 2014, [6] in
the paper), which this paper combines with the enlarged transformation space:
a dependence whose distance along some dimension is *parametric* (e.g. the
``N-1``-long wraparound arcs of a periodic stencil, Fig. 4b) blocks tiling;
cutting the domain at the mid-point of those arcs (Fig. 4c) yields two
statements whose dependences can be shortened — but only by transformations
that reverse one of the halves, which is exactly what Pluto+ contributes.

The splitting here is the "hyperplane through the mid-points" special case:
for each statement dimension carrying a long dependence, the domain is cut at
the mid-point of the dimension's extent (``2i <= lb+ub`` vs ``2i >= lb+ub+1``),
and every affected statement is replaced by one copy per orthant of its cut
dimensions.  This covers the paper's periodic stencil, LBM, and swim
workloads and the symmetric patterns of Figs. 2-3.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from repro.deps.analysis import Dependence, compute_dependences
from repro.frontend.ir import Access, Program, Statement
from repro.polyhedra import AffExpr, BasicSet, Constraint

__all__ = ["long_dependence_dims", "index_set_split", "needs_iss"]


def _min_at_params(dep: Dependence, expr: AffExpr, bump: int):
    """Min of ``expr`` with every parameter pinned to ``param_min + bump``."""
    space = dep.space
    poly = dep.polyhedron.copy()
    program_min = {}
    for p in space.params:
        # The polyhedron already contains ``p >= param_min``; recover that
        # lower bound from its constraints to pin consistently.
        lows, _ = poly.bounds_for(p)
        base = max(
            (int(e.const_term) for e, k in lows if e.is_constant() and k == 1),
            default=2,
        )
        program_min[p] = base + bump
        poly.add(
            Constraint(
                AffExpr.var(space, p) - AffExpr.const(space, base + bump),
                equality=True,
            )
        )
    return poly.min_of(expr)


def _dim_distance_is_long(dep: Dependence, dim: str) -> bool:
    """True when the dependence distance along ``dim`` has a *parametric
    minimum magnitude* — the arcs ISS must cut (Fig. 4b).

    Distances that merely have an unbounded maximum (e.g. memory-based
    rewrites of the same cell at every later time step, minimum distance 1)
    do not block tiling and are not split.
    """
    if dim not in dep.source.space.dims or dim not in dep.target.space.dims:
        return False
    expr = AffExpr.var(dep.space, dep.tgt_rename[dim]) - AffExpr.var(
        dep.space, dep.src_rename[dim]
    )
    try:
        lo = dep.polyhedron.min_of(expr)
    except ValueError:
        return True  # minimum unbounded below: certainly parametric
    if lo is None:
        return False  # empty (should not happen for kept deps)
    try:
        dep.polyhedron.max_of(expr)
        return False  # bounded constant range: short
    except ValueError:
        pass
    # Max unbounded above: decide whether the *minimum* tracks the parameters
    # by probing two parameter contexts.
    lo_small = _min_at_params(dep, expr, 0)
    lo_large = _min_at_params(dep, expr, 8)
    return lo_small != lo_large


def long_dependence_dims(deps: Sequence[Dependence]) -> dict[str, set[str]]:
    """Map statement name -> dims along which it has a long dependence."""
    out: dict[str, set[str]] = {}
    for dep in deps:
        for dim in set(dep.source.space.dims) & set(dep.target.space.dims):
            if _dim_distance_is_long(dep, dim):
                out.setdefault(dep.source.name, set()).add(dim)
                out.setdefault(dep.target.name, set()).add(dim)
    return out


def needs_iss(deps: Sequence[Dependence]) -> bool:
    return bool(long_dependence_dims(deps))


def _midpoint_cut(stmt: Statement, dim: str) -> Optional[tuple[AffExpr, AffExpr]]:
    """Expressions ``(lo_side, hi_side)``: ``2*dim - (lb+ub) <= 0`` and
    ``>= 1`` respectively, from the dimension's symbolic bounds."""
    lowers, uppers = stmt.domain.bounds_for(dim)
    if not lowers or not uppers:
        return None
    lb_expr, lb_div = lowers[0]
    ub_expr, ub_div = uppers[0]
    if lb_div != 1 or ub_div != 1:
        return None
    d = AffExpr.var(stmt.space, dim)
    mid_sum = lb_expr + ub_expr           # lb + ub
    lo_side = mid_sum - 2 * d             # >= 0  <=>  2*dim <= lb+ub
    hi_side = 2 * d - mid_sum - 1         # >= 0  <=>  2*dim >= lb+ub+1
    return lo_side, hi_side


def index_set_split(
    program: Program,
    deps: Optional[Sequence[Dependence]] = None,
) -> tuple[Program, bool]:
    """Split statements carrying long dependences at dimension mid-points.

    Returns ``(new_program, changed)``.  When no long dependence exists the
    original program is returned unchanged (``changed = False``).
    Dependences must be recomputed on the new program by the caller; ``deps``
    — all of ``compute_dependences(program)`` — rides along on it
    (``live_candidates``, each statement's ``origin``), so that analysis
    tests only what was non-empty before the cut.
    """
    if deps is None:
        deps = compute_dependences(program)
    cut_dims = long_dependence_dims(deps)
    if not cut_dims:
        return program, False

    # The splitting hyperplane cuts the *whole* computation, not only the
    # statements that own long dependences ([6] splits the fused iteration
    # space): a statement left unsplit would need a single transformation
    # coefficient to serve both halves of its split neighbors, which makes
    # the shift systems infeasible (observed on swim: the copy-back sweep
    # must be quadranted even though its own dependences are short).
    global_dims = sorted({d for dims in cut_dims.values() for d in dims})

    out = Program(program.name, program.params, program.param_min)
    out.live_candidates = frozenset(
        (d.source.name, d.target.name, *d.candidate) for d in deps
    )
    for stmt in program.statements:
        dims = [d for d in global_dims if d in stmt.space.dims]
        cuts = []
        for dim in dims:
            cut = _midpoint_cut(stmt, dim)
            if cut is not None:
                cuts.append((dim, cut))
        if not cuts:
            out.add_statement(
                Statement(
                    name=stmt.name,
                    domain=stmt.domain.copy(),
                    reads=list(stmt.reads),
                    writes=list(stmt.writes),
                    body=stmt.body,
                    sched=list(stmt.sched),
                    origin=stmt.name,
                )
            )
            continue
        for sides in itertools.product((0, 1), repeat=len(cuts)):
            suffix = "".join("m" if s == 0 else "p" for s in sides)
            domain = stmt.domain.copy()
            for (dim, (lo, hi)), side in zip(cuts, sides):
                domain.add(Constraint(lo if side == 0 else hi))
            if domain.is_empty():
                continue
            out.add_statement(
                Statement(
                    name=f"{stmt.name}_{suffix}",
                    domain=domain,
                    reads=[Access(a.array, a.map, a.guard) for a in stmt.reads],
                    writes=[Access(a.array, a.map, a.guard) for a in stmt.writes],
                    body=stmt.body,
                    sched=list(stmt.sched),
                    origin=stmt.name,
                )
            )
    return out, True
