"""The tests' reference lexmin: one objective at a time on the exact solver.

``repro.ilp.lexmin`` answers every scheduling lexmin on HiGHS through one
loop of shortcut, probe, fold, solve and pin.  This reference shares none of
that loop, only the model it is asked about: one warm :class:`IncrementalLP`
holds the whole model, each objective variable is minimised alone by
branch-and-bound on it, and its optimum is fixed (:meth:`IncrementalLP.fix`)
before the next.  It is slow and obvious on purpose; it is only tractable on
small models.
"""

from __future__ import annotations

from repro.ilp import ILPModel, ILPStatus, LexminResult, SolveStats
from tests.ilp.branch_bound import solve_ilp_warm
from tests.ilp.simplex import IncrementalLP

__all__ = ["reference_lexmin"]


def reference_lexmin(model: ILPModel, node_limit: int = 20000) -> LexminResult:
    """Lexicographically minimize ``model.objective_order``, one variable per
    solve, with the result type of :func:`repro.ilp.lexmin`."""
    if not model.objective_order:
        raise ValueError("model has no objective order set")
    inc = IncrementalLP(model)
    stats = SolveStats(lp_solves=1, simplex_pivots=inc.pivots)  # the phase 1
    if not inc.is_feasible:
        return LexminResult(ILPStatus.INFEASIBLE, stats=stats)
    values, assignment = [], {}
    for name in model.objective_order:
        result, at_root = solve_ilp_warm(inc, model, {name: 1}, node_limit)
        stats.merge(result.stats)
        stats.warm_starts += at_root
        if not result.is_optimal:
            return LexminResult(result.status, stats=stats, solves=len(values) + 1)
        inc.fix(name, result.objective)
        values.append(result.objective)
        assignment = result.assignment
    return LexminResult(
        ILPStatus.OPTIMAL, dict(assignment), values, stats, len(values)
    )
