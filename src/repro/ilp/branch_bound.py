"""Branch-and-bound integer programming on top of the exact simplex.

Together with :mod:`repro.ilp.simplex` this forms the exact (PIP-role) ILP
backend.  The scheduler's relaxations are usually integral or nearly so —
most Pluto/Pluto+ models have totally-unimodular-looking structure — so the
tree stays tiny in practice, but the implementation is a complete DFS with
integral-bound pruning and a node-limit safeguard.  There is one loop,
:func:`solve_ilp_warm`, which works on a live tableau; :func:`solve_ilp` runs
it on a fresh one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from repro.ilp.model import ILPModel, LinearConstraint, SolveStats
from repro.ilp.simplex import IncrementalLP, LPStatus

__all__ = [
    "ILPResult",
    "ILPStatus",
    "solve_ilp",
    "solve_ilp_warm",
    "BranchAndBoundError",
]


class ILPStatus:
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class BranchAndBoundError(RuntimeError):
    """Raised when the node limit is exhausted without proving optimality."""


@dataclass
class ILPResult:
    status: str
    objective: Optional[Fraction] = None
    assignment: dict[str, Fraction] = field(default_factory=dict)
    stats: SolveStats = field(default_factory=SolveStats)

    @property
    def is_optimal(self) -> bool:
        return self.status == ILPStatus.OPTIMAL


def _first_fractional(
    model: ILPModel, assignment: Mapping[str, Fraction]
) -> Optional[str]:
    """Pick the branching variable: fractional binaries first.

    The Pluto+ models hang big-M (radix) rows off 0/1 decision variables;
    fixing a fractional binary immediately deactivates one side of the
    disjunction, so branching there first closes the tree far faster than
    branching in declaration order.
    """
    fallback: Optional[str] = None
    for name, var in model.variables.items():
        if not var.integer or assignment[name].denominator == 1:
            continue
        if var.lower == 0 and var.upper == 1:
            return name
        if fallback is None:
            fallback = name
    return fallback


def solve_ilp(
    model: ILPModel,
    objective: Mapping[str, int | Fraction],
    extra: Sequence[LinearConstraint] = (),
    node_limit: int = 20000,
) -> ILPResult:
    """Minimize ``objective . x`` with the model's integrality constraints.

    ``extra`` constraints are appended to the model's own.  This is
    :func:`solve_ilp_warm` on a fresh tableau (one phase 1, then every
    branching cut applied warm).  Raises :class:`BranchAndBoundError` if
    ``node_limit`` subproblems are explored without closing the tree.
    """
    inc = IncrementalLP(model, extra)
    phase1_pivots = inc.pivots
    result, _ = solve_ilp_warm(inc, model, objective, node_limit)
    result.stats.simplex_pivots += phase1_pivots
    return result


def solve_ilp_warm(
    inc: IncrementalLP,
    model: ILPModel,
    objective: Mapping[str, int | Fraction],
    node_limit: int = 20000,
) -> tuple[ILPResult, bool]:
    """Branch-and-bound on a live :class:`IncrementalLP` tableau.

    The root relaxation runs warm from whatever basis ``inc`` currently
    holds, and every branching cut is appended warm (single-artificial
    repair) on a snapshot of its parent — no subproblem ever rebuilds the
    tableau or re-runs full phase 1.  Returns ``(result, at_root)`` where
    ``at_root`` says the root relaxation was already integral; in that case
    the optimal basis is left in place (so a following ``fix`` is free),
    otherwise the tableau is restored to its pre-call state.
    """
    stats = SolveStats()
    root = inc.snapshot()
    integral_objective = all(
        Fraction(coef).denominator == 1 for coef in objective.values()
    )
    incumbent: Optional[ILPResult] = None
    # (parent snapshot, cut to apply); the root node has no cut.
    stack: list[tuple[tuple, Optional[LinearConstraint]]] = [(root, None)]
    nodes = 0
    at_root = False

    while stack:
        snap, cut = stack.pop()
        nodes += 1
        if nodes > node_limit:
            inc.restore(root)
            raise BranchAndBoundError(
                f"branch-and-bound node limit ({node_limit}) exceeded"
            )
        if cut is not None:
            inc.restore(snap)
            before = inc.pivots
            ok = inc.add_constraint(cut)
            stats.simplex_pivots += inc.pivots - before
            if not ok:
                continue
        lp = inc.minimize(objective)
        stats.lp_solves += 1
        stats.simplex_pivots += lp.pivots
        if lp.status == LPStatus.INFEASIBLE:
            continue
        if lp.status == LPStatus.UNBOUNDED:
            # With integer variables an unbounded relaxation means the ILP
            # is unbounded or infeasible; the scheduler's bounded models
            # never get here, so report unboundedness directly.
            inc.restore(root)
            stats.bb_nodes = nodes
            return ILPResult(ILPStatus.UNBOUNDED, stats=stats), False

        # Integral-bound pruning: when all objective data is integer, any
        # integer solution in this subtree has value >= ceil(lp bound).
        if incumbent is not None and incumbent.objective is not None:
            bound = math.ceil(lp.objective) if integral_objective else lp.objective
            if bound >= incumbent.objective:
                continue

        frac_var = _first_fractional(model, lp.assignment)
        if frac_var is None:
            if incumbent is None or lp.objective < incumbent.objective:
                incumbent = ILPResult(
                    ILPStatus.OPTIMAL, lp.objective, dict(lp.assignment)
                )
                at_root = cut is None and nodes == 1
            continue

        value = lp.assignment[frac_var]
        floor_v = value.numerator // value.denominator
        here = inc.snapshot()
        # "down" is pushed last and so explored first (smaller values first
        # matches the lexmin flavor of the callers).
        stack.append(
            (here, LinearConstraint({frac_var: 1}, -(floor_v + 1), label="bb-up"))
        )
        stack.append(
            (here, LinearConstraint({frac_var: -1}, floor_v, label="bb-down"))
        )

    stats.bb_nodes = nodes
    if incumbent is None:
        inc.restore(root)
        return ILPResult(ILPStatus.INFEASIBLE, stats=stats), False
    if not at_root:
        inc.restore(root)
    incumbent.stats = stats
    return incumbent, at_root
