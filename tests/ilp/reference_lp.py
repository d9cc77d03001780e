"""Reference LP oracle: the seed's dense ``Fraction`` simplex.

This was ``repro.ilp.simplex``'s second tableau (``solve_lp(engine=
"fraction")``) until the seed-reproduction switch was retired; it now exists
only so the hypothesis tests in ``test_warm_solver.py`` can pin the
integer-scaled engine against an independently pivoted one.  It shares the
standard-form column mapping (``_StandardForm``) with the engine under test
and nothing else: its own dense tableau, Bland's rule throughout, a fresh
phase 1 per call.  Do not optimize it — slow and obvious is the point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Sequence

from repro.ilp import ILPModel, LinearConstraint, LPResult, LPStatus
from repro.ilp.simplex import _StandardForm

_ZERO = Fraction(0)
_ONE = Fraction(1)


class FractionTableau:
    """Dense simplex tableau ``[A | b]`` over :class:`Fraction`, Bland's rule
    throughout."""

    def __init__(self, rows: list[list[Fraction]], basis: list[int], ncols: int):
        self.rows = rows          # m rows, each of length ncols + 1 (rhs last)
        self.basis = basis        # basis[i] = column basic in row i
        self.ncols = ncols
        self.pivots = 0

    def pivot(self, r: int, c: int) -> None:
        rows = self.rows
        prow = rows[r]
        pv = prow[c]
        inv = _ONE / pv
        rows[r] = prow = [x * inv for x in prow]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[c]
            if f != 0:
                rows[i] = [a - f * b for a, b in zip(row, prow)]
        self.basis[r] = c
        self.pivots += 1

    def reduced_costs(self, cost: list[Fraction]) -> list[Fraction]:
        red = list(cost)
        for i, b in enumerate(self.basis):
            ci = cost[b]
            if ci == 0:
                continue
            row = self.rows[i]
            for j in range(self.ncols):
                if row[j] != 0:
                    red[j] -= ci * row[j]
        return red

    def objective_value(self, cost: list[Fraction]) -> Fraction:
        total = _ZERO
        for i, b in enumerate(self.basis):
            if cost[b] != 0:
                total += cost[b] * self.rows[i][self.ncols]
        return total

    def run(self, cost: list[Fraction], allowed_cols: Optional[set[int]] = None) -> str:
        n = self.ncols
        while True:
            red = self.reduced_costs(cost)
            entering = -1
            for j in range(n):
                if allowed_cols is not None and j not in allowed_cols:
                    continue
                if red[j] < 0:
                    entering = j
                    break
            if entering < 0:
                return LPStatus.OPTIMAL
            leaving = -1
            best_ratio: Optional[Fraction] = None
            for i, row in enumerate(self.rows):
                a = row[entering]
                if a > 0:
                    ratio = row[n] / a
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[i] < self.basis[leaving])
                    ):
                        best_ratio = ratio
                        leaving = i
            if leaving < 0:
                return LPStatus.UNBOUNDED
            self.pivot(leaving, entering)


def solve_lp_fraction(
    model: ILPModel,
    objective: Mapping[str, int | Fraction],
    extra: Sequence[LinearConstraint] = (),
) -> LPResult:
    """Two-phase solve on a dense Fraction tableau built from scratch; same
    signature and result type as :func:`repro.ilp.solve_lp`."""
    sf = _StandardForm(model)
    raw = []
    for con in list(model.constraints) + list(extra) + sf.bound_rows:
        row, rhs, den = sf.row_for(con.coeffs, con.const)
        raw.append((row, rhs, den, con.equality))

    structural = sf.structural
    n_slacks = sum(1 for _, _, _, eq in raw if not eq)
    ncols = structural + n_slacks
    rows: list[list[Fraction]] = []
    slack_at = structural
    row_slack_col: list[Optional[int]] = []
    for row, rhs, den, equality in raw:
        full = [_ZERO] * ncols + [Fraction(rhs, den)]
        for j, v in row.items():
            full[j] = Fraction(v, den)
        if not equality:
            full[slack_at] = Fraction(-1)
            row_slack_col.append(slack_at)
            slack_at += 1
        else:
            row_slack_col.append(None)
        if full[ncols] < 0:
            full = [-x for x in full]
        rows.append(full)

    m = len(rows)
    basis = [-1] * m
    art_cols: list[int] = []
    total_cols = ncols
    for i in range(m):
        sc = row_slack_col[i]
        if sc is not None and rows[i][sc] == 1:
            basis[i] = sc
    for i in range(m):
        if basis[i] >= 0:
            continue
        for row in rows:
            row.insert(total_cols, _ZERO)
        rows[i][total_cols] = _ONE
        art_cols.append(total_cols)
        basis[i] = total_cols
        total_cols += 1

    tab = FractionTableau(rows, basis, total_cols)
    allowed: Optional[set[int]] = None
    if art_cols:
        phase1_cost = [_ZERO] * total_cols
        for c in art_cols:
            phase1_cost[c] = _ONE
        status = tab.run(phase1_cost)
        if status != LPStatus.OPTIMAL or tab.objective_value(phase1_cost) != 0:
            return LPResult(LPStatus.INFEASIBLE, pivots=tab.pivots)
        art_set = set(art_cols)
        for i in range(m):
            if tab.basis[i] in art_set:
                row = tab.rows[i]
                entering = next((j for j in range(ncols) if row[j] != 0), None)
                if entering is not None:
                    tab.pivot(i, entering)
        allowed = set(range(total_cols)) - art_set

    cost = [_ZERO] * total_cols
    col_cost = sf.cost_for(objective)
    for j, coef in col_cost.items():
        cost[j] = coef
    status = tab.run(cost, allowed_cols=allowed)
    if status == LPStatus.UNBOUNDED:
        return LPResult(LPStatus.UNBOUNDED, pivots=tab.pivots)

    solution = [_ZERO] * total_cols
    for i in range(m):
        solution[tab.basis[i]] = tab.rows[i][tab.ncols]
    assignment = sf.recover(lambda c: solution[c])
    obj_val = sum((Fraction(c) * assignment[n] for n, c in objective.items()), _ZERO)
    return LPResult(LPStatus.OPTIMAL, obj_val, assignment, tab.pivots)
