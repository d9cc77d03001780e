"""MILP backend on scipy's HiGHS (:func:`scipy.optimize.milp`).

This plays the role GLPK plays in the paper: a fast floating-point MILP
solver used for the large scheduling ILPs (the paper switched to GLPK above
roughly one hundred variables; swim's Pluto+ model had 219).  The interface
matches :func:`repro.ilp.branch_bound.solve_ilp` so the lexmin driver can
switch backends transparently.

All scheduler models have pure-integer data and modest magnitudes, so the
floating-point optimum is rounded to the nearest integer vector and verified
against the model before being returned; if the rounded point fails that
check the exact solver (:func:`repro.ilp.branch_bound.solve_ilp`) answers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy import optimize, sparse

from repro.ilp.branch_bound import ILPResult, ILPStatus, solve_ilp
from repro.ilp.model import ILPModel, LinearConstraint, SolveStats

__all__ = ["solve_ilp_highs"]


def solve_ilp_highs(
    model: ILPModel,
    objective: Mapping[str, int | Fraction],
    extra: Sequence[LinearConstraint] = (),
    node_limit: int = 20000,
) -> ILPResult:
    """Minimize ``objective . x`` using HiGHS.  Mirrors ``solve_ilp``.

    When the rounded optimum fails verification the pure-Python exact solver
    answers instead, with the same ``node_limit`` (already x100 on the
    work-limit retry path): correct, but on the large models ``auto`` routes
    here it can be slow, and it can raise ``BranchAndBoundError``.
    """
    names = model.var_names()
    index = {n: i for i, n in enumerate(names)}
    n = len(names)

    c = np.zeros(n)
    for name, coef in objective.items():
        c[index[name]] = float(coef)

    lb = np.full(n, -np.inf)
    ub = np.full(n, np.inf)
    integrality = np.zeros(n)
    for i, name in enumerate(names):
        var = model.variables[name]
        if var.lower is not None:
            lb[i] = var.lower
        if var.upper is not None:
            ub[i] = var.upper
        integrality[i] = 1 if var.integer else 0

    constraints = list(model.constraints) + list(extra)
    rows, cols, data = [], [], []
    c_lb = np.zeros(len(constraints))
    c_ub = np.zeros(len(constraints))
    for r, con in enumerate(constraints):
        for name, coef in con.coeffs.items():
            rows.append(r)
            cols.append(index[name])
            data.append(float(coef))
        # expr + const >= 0  =>  expr >= -const;  equality pins both sides.
        c_lb[r] = -float(con.const)
        c_ub[r] = -float(con.const) if con.equality else np.inf

    a = None
    if constraints:
        a = sparse.csc_matrix((data, (rows, cols)), shape=(len(constraints), n))
        lincon = optimize.LinearConstraint(a, c_lb, c_ub)
        res = optimize.milp(
            c,
            constraints=[lincon],
            bounds=optimize.Bounds(lb, ub),
            integrality=integrality,
            options={"node_limit": node_limit},
        )
    else:
        res = optimize.milp(
            c,
            bounds=optimize.Bounds(lb, ub),
            integrality=integrality,
            options={"node_limit": node_limit},
        )

    stats = SolveStats(lp_solves=1)
    if res.status == 2:  # infeasible
        return ILPResult(ILPStatus.INFEASIBLE, stats=stats)
    if res.status == 3:  # unbounded
        return ILPResult(ILPStatus.UNBOUNDED, stats=stats)
    if res.status == 1:
        # Iteration/node limit: must NOT be conflated with infeasibility.
        # One retry with a raised ceiling; a second failure is surfaced.
        if node_limit < 10_000_000:
            retry = solve_ilp_highs(model, objective, extra, node_limit * 100)
            retry.stats.merge(stats)
            return retry
        raise RuntimeError(
            f"HiGHS hit its work limit on a {model.num_variables}-variable model"
        )
    if res.status == 4 or not res.success or res.x is None:
        # HiGHS reports "unbounded or infeasible" without deciding which
        # (presolve shortcut).  Disambiguate with a zero-objective
        # feasibility solve: feasible + undecided => unbounded.
        if any(objective.values()):
            probe = solve_ilp_highs(model, {}, extra, node_limit)
            stats.merge(probe.stats)
            if probe.is_optimal:
                return ILPResult(ILPStatus.UNBOUNDED, stats=stats)
        return ILPResult(ILPStatus.INFEASIBLE, stats=stats)

    x = np.where(integrality > 0, np.round(res.x), res.x)
    assignment: dict[str, Fraction] = {}
    for i, name in enumerate(names):
        if integrality[i]:
            assignment[name] = Fraction(int(x[i]))
        else:
            assignment[name] = Fraction(float(x[i])).limit_denominator(10**9)

    # Verify the rounded vector in one vectorized pass (integer-rounded
    # values against integer constraint data, so 1e-6 slack is conservative).
    # A point that fails says nothing about feasibility — answering
    # "infeasible" here would make ``BasicSet.is_empty`` drop a dependence —
    # so the exact solver decides instead.
    verified = np.all(x >= lb - 1e-6) and np.all(x <= ub + 1e-6)
    if verified and a is not None:
        vals = a @ x
        verified = np.all(vals >= c_lb - 1e-6) and np.all(vals <= c_ub + 1e-6)
    if not verified:
        exact = solve_ilp(model, objective, extra, node_limit)
        exact.stats.merge(stats)
        return exact

    obj_val = sum(
        (Fraction(coef) * assignment[name] for name, coef in objective.items()),
        Fraction(0),
    )
    return ILPResult(ILPStatus.OPTIMAL, obj_val, assignment, stats)
