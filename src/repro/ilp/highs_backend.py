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

A :class:`HighsSession` assembles one model for HiGHS once — names, bounds,
integrality, an integer CSC matrix — and then answers any number of
objectives over it; the lexmin driver keeps one per call, pins by setting
``lb = ub``, and runs its lower-bound probe as one exact integer mat-vec.
:func:`solve_ilp_highs` is a session of one solve.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

import numpy as np
from scipy import optimize, sparse

from repro.ilp.branch_bound import ILPResult, ILPStatus, solve_ilp
from repro.ilp.model import ILPModel, LinearConstraint, SolveStats

__all__ = ["HighsSession", "solve_ilp_highs"]


class HighsSession:
    """``model`` (plus ``extra`` rows) assembled for HiGHS once."""

    def __init__(self, model: ILPModel, extra: Sequence[LinearConstraint] = ()):
        self.model, self.extra = model, tuple(extra)
        self.names = model.var_names()
        self.index = {n: i for i, n in enumerate(self.names)}
        variables = model.variables.values()
        self.lb = np.array(
            [-np.inf if v.lower is None else v.lower for v in variables], dtype=float
        )
        self.ub = np.array(
            [np.inf if v.upper is None else v.upper for v in variables], dtype=float
        )
        self.integral = np.array([v.integer for v in variables], dtype=bool)
        self.pins: dict[str, Fraction] = {}

        # Rows are scaled to integers (a no-op on scheduler models), so a
        # mat-vec on an integer point is exact.
        rows, cols, data, rhs, eq = [], [], [], [], []
        for r, con in enumerate((*model.constraints, *self.extra)):
            scale = lcm(
                con.const.denominator, *(c.denominator for c in con.coeffs.values())
            )
            for name, coef in con.coeffs.items():
                rows.append(r)
                cols.append(self.index[name])
                data.append(int(coef * scale))
            # expr + const >= 0  =>  expr >= -const;  equality pins both sides.
            rhs.append(-int(con.const * scale))
            eq.append(con.equality)
        self.rhs = np.array(rhs, dtype=np.int64)
        self.eq = np.array(eq, dtype=bool)
        self.a = sparse.csc_matrix(
            (np.array(data, dtype=np.int64), (rows, cols)),
            shape=(len(rhs), len(self.names)),
        )
        #: no row of ``a @ x`` can wrap int64 while every ``|x_i|`` is below this
        widest = len(self.names) * max(map(abs, data), default=0)
        self._x_limit = 2.0**62 / max(1, widest)
        self._constraints = []
        if rhs:
            upper = np.where(self.eq, self.rhs, np.inf)
            self._constraints.append(
                optimize.LinearConstraint(self.a.astype(float), self.rhs, upper)
            )

    def pin(self, name: str, value: Fraction) -> None:
        """Fix ``name`` for every later solve (``lb = ub``, no new row)."""
        self.lb[self.index[name]] = self.ub[self.index[name]] = value
        self.pins[name] = value

    def _holds(self, x: np.ndarray, tol: float) -> bool:
        slack = self.a @ x - self.rhs
        return bool(
            np.all(x >= self.lb - tol) and np.all(x <= self.ub + tol)
            and np.all(slack >= -tol) and np.all(slack[self.eq] <= tol)
        )

    def satisfies(self, assignment: Mapping[str, Fraction]) -> bool:
        """Exact feasibility of an integer ``assignment`` (bounds, pins and
        rows) in one integer mat-vec; ``False`` for a point it cannot
        decide exactly (a non-integer value, or one large enough to wrap)."""
        values = [assignment[n] for n in self.names]
        if any(v.denominator != 1 for v in values):
            return False
        x = [v.numerator for v in values]
        if max(map(abs, x), default=0) > self._x_limit:
            return False
        return self._holds(np.array(x, dtype=np.int64), 0)

    def solve(
        self, objective: Mapping[str, int | Fraction], node_limit: int = 20000
    ) -> ILPResult:
        """Minimize ``objective . x`` over the model under the current pins."""
        c = np.zeros(len(self.names))
        for name, coef in objective.items():
            c[self.index[name]] = float(coef)
        # mip_rel_gap 0: the default 1e-4 would accept a folded lexmin
        # objective (magnitudes up to 1e5) several units from its optimum.
        res = optimize.milp(
            c,
            constraints=self._constraints,
            bounds=optimize.Bounds(self.lb, self.ub),
            integrality=self.integral,
            options={"node_limit": node_limit, "mip_rel_gap": 0},
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
                retry = self.solve(objective, node_limit * 100)
                retry.stats.merge(stats)
                return retry
            raise RuntimeError(
                f"HiGHS hit its work limit on a {len(self.names)}-variable model"
            )
        if res.status == 4 or not res.success or res.x is None:
            # HiGHS reports "unbounded or infeasible" without deciding which
            # (presolve shortcut).  Disambiguate with a zero-objective
            # feasibility solve: feasible + undecided => unbounded.
            if any(objective.values()):
                probe = self.solve({}, node_limit)
                stats.merge(probe.stats)
                if probe.is_optimal:
                    return ILPResult(ILPStatus.UNBOUNDED, stats=stats)
            return ILPResult(ILPStatus.INFEASIBLE, stats=stats)

        # Verify the rounded vector in one vectorized pass (integer-rounded
        # values against integer constraint data, so 1e-6 slack is
        # conservative).  A point that fails says nothing about feasibility —
        # answering "infeasible" here would make ``BasicSet.is_empty`` drop a
        # dependence — so the exact solver decides instead.
        x = np.where(self.integral, np.round(res.x), res.x)
        if not self._holds(x, 1e-6):
            pins = tuple(
                LinearConstraint({n: 1}, -v, equality=True, label=f"fix:{n}")
                for n, v in self.pins.items()
            )
            exact = solve_ilp(self.model, objective, self.extra + pins, node_limit)
            exact.stats.merge(stats)
            return exact
        assignment = {
            name: Fraction(int(v)) if integral
            else Fraction(float(v)).limit_denominator(10**9)
            for name, v, integral in zip(self.names, x, self.integral)
        }
        obj_val = sum(
            (Fraction(coef) * assignment[name] for name, coef in objective.items()),
            Fraction(0),
        )
        return ILPResult(ILPStatus.OPTIMAL, obj_val, assignment, stats)


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
    return HighsSession(model, extra).solve(objective, node_limit)
