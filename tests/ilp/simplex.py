"""Exact two-phase primal simplex over integer-scaled rows.

The LP core of the exact solver the tests check HiGHS against (the role
PIP's exact LP core plays in the paper).  Every tableau
row is kept as a sparse integer vector with one shared positive denominator
(``row / den``), gcd-normalized after each pivot, so arithmetic stays exact
without paying :class:`fractions.Fraction` overhead on every entry.  Pivot
selection is Dantzig's rule (most negative reduced cost) with an automatic
fallback to Bland's rule after a run of degenerate pivots, which preserves
the termination guarantee while pivoting far less on scheduler models.

Two entry points:

* :class:`IncrementalLP` — a persistent standard-form tableau supporting
  ``minimize`` / ``fix`` / ``add_constraint`` cycles and snapshots, which is
  what lets the reference lexmin (:mod:`tests.ilp.reference_lexmin`)
  warm-start each objective from the previous optimal basis and
  branch-and-bound apply its cuts without rebuilding;
* :func:`solve_lp` — one-shot solve of an :class:`~repro.ilp.model.ILPModel`
  relaxation (integrality flags ignored) on a fresh :class:`IncrementalLP`.

The seed's dense ``Fraction`` tableau is a second, slower oracle
(``tests/ilp/reference_lp.py``) that the property tests pin the
integer-scaled pivoting against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Mapping, Optional, Sequence

from repro.ilp.model import ILPModel, LinearConstraint

__all__ = ["LPResult", "LPStatus", "solve_lp", "IncrementalLP"]

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: consecutive degenerate pivots before Dantzig's rule yields to Bland's
STALL_LIMIT = 24


class LPStatus:
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    objective: Optional[Fraction] = None
    assignment: dict[str, Fraction] = field(default_factory=dict)
    pivots: int = 0

    @property
    def is_optimal(self) -> bool:
        return self.status == LPStatus.OPTIMAL


# ---------------------------------------------------------------------------
# Integer-scaled sparse tableau
# ---------------------------------------------------------------------------


class _IntTableau:
    """Sparse tableau whose row ``i`` represents ``rows[i] / dens[i]``.

    ``rows[i]`` maps column index to an integer numerator (zeros absent),
    ``rhs[i]`` is the integer right-hand-side numerator, and ``dens[i] > 0``
    is the row's shared denominator.  The basis invariant is the usual one:
    the column of ``basis[i]`` is a unit vector with its 1 in row ``i``.
    """

    def __init__(
        self,
        rows: list[dict[int, int]],
        rhs: list[int],
        dens: list[int],
        basis: list[int],
    ):
        self.rows = rows
        self.rhs = rhs
        self.dens = dens
        self.basis = basis
        self.pivots = 0
        # Reduced-cost row carried through pivots while ``run`` is active
        # (``obj / obj_den``): pricing is then O(nnz) per iteration instead
        # of an O(m * nnz) recomputation.
        self.obj: Optional[dict[int, int]] = None
        self.obj_den = 1

    def _normalize(self, i: int) -> None:
        g = self.dens[i]
        for v in self.rows[i].values():
            g = gcd(g, abs(v))
            if g == 1:
                return
        g = gcd(g, abs(self.rhs[i]))
        if g > 1:
            self.rows[i] = {j: v // g for j, v in self.rows[i].items()}
            self.rhs[i] //= g
            self.dens[i] //= g

    def pivot(self, r: int, c: int) -> None:
        rows, rhs, dens = self.rows, self.rhs, self.dens
        prow = rows[r]
        p = prow[c]
        prhs = rhs[r]
        for i in range(len(rows)):
            if i == r:
                continue
            f = rows[i].get(c)
            if not f:
                continue
            row = rows[i]
            new = {j: a * p for j, a in row.items()}
            for j, b in prow.items():
                v = new.get(j, 0) - f * b
                if v:
                    new[j] = v
                else:
                    new.pop(j, None)
            nrhs = rhs[i] * p - f * prhs
            nden = dens[i] * p
            if nden < 0:
                nden = -nden
                nrhs = -nrhs
                new = {j: -v for j, v in new.items()}
            rows[i], rhs[i], dens[i] = new, nrhs, nden
            self._normalize(i)
        if self.obj is not None:
            f = self.obj.get(c)
            if f:
                obj = self.obj
                new = {j: a * p for j, a in obj.items()}
                for j, b in prow.items():
                    v = new.get(j, 0) - f * b
                    if v:
                        new[j] = v
                    else:
                        new.pop(j, None)
                nden = self.obj_den * p
                if nden < 0:
                    nden = -nden
                    new = {j: -v for j, v in new.items()}
                g = nden
                for v in new.values():
                    g = gcd(g, abs(v))
                    if g == 1:
                        break
                if g > 1:
                    new = {j: v // g for j, v in new.items()}
                    nden //= g
                self.obj, self.obj_den = new, nden
        # The pivot row itself becomes ``prow / p`` (its old denominator
        # cancels); keep the stored denominator positive.
        if p < 0:
            rows[r] = {j: -v for j, v in prow.items()}
            rhs[r] = -prhs
            dens[r] = -p
        else:
            dens[r] = p
        self.basis[r] = c
        self._normalize(r)
        self.pivots += 1

    def reduced_costs(self, cost: Mapping[int, Fraction]) -> dict[int, Fraction]:
        """``c_j - c_B . B^-1 A_j`` over the columns where it is nonzero."""
        red: dict[int, Fraction] = {j: v for j, v in cost.items() if v}
        for i, b in enumerate(self.basis):
            cb = cost.get(b)
            if not cb:
                continue
            di = self.dens[i]
            for j, a in self.rows[i].items():
                v = red.get(j, _ZERO) - cb * Fraction(a, di)
                if v:
                    red[j] = v
                else:
                    red.pop(j, None)
        return red

    def objective_value(self, cost: Mapping[int, Fraction]) -> Fraction:
        total = _ZERO
        for i, b in enumerate(self.basis):
            cb = cost.get(b)
            if cb:
                total += cb * Fraction(self.rhs[i], self.dens[i])
        return total

    def solution_value(self, col: int) -> Fraction:
        for i, b in enumerate(self.basis):
            if b == col:
                return Fraction(self.rhs[i], self.dens[i])
        return _ZERO

    def run(
        self, cost: Mapping[int, Fraction], blocked: Optional[set[int]] = None
    ) -> str:
        """Minimize ``cost . x``; Dantzig's rule, Bland's on stalling.

        Reduced costs are computed once up front, then carried as an extra
        tableau row (``self.obj``) updated by each pivot — all entries share
        ``obj_den > 0``, so sign tests and Dantzig comparisons stay on plain
        integers.
        """
        red = self.reduced_costs(cost)
        den = 1
        for v in red.values():
            den = _lcm(den, v.denominator)
        self.obj = {j: int(v * den) for j, v in red.items()}
        self.obj_den = den
        try:
            return self._run_priced(blocked)
        finally:
            self.obj = None
            self.obj_den = 1

    def _run_priced(self, blocked: Optional[set[int]]) -> str:
        stall = 0
        bland = False
        while True:
            obj = self.obj
            assert obj is not None
            entering = -1
            if bland:
                for j, v in obj.items():
                    if v < 0 and (blocked is None or j not in blocked):
                        if entering < 0 or j < entering:
                            entering = j
            else:
                best: Optional[int] = None
                for j, v in obj.items():
                    if v < 0 and (blocked is None or j not in blocked):
                        if best is None or v < best or (v == best and j < entering):
                            best = v
                            entering = j
            if entering < 0:
                return LPStatus.OPTIMAL
            # Ratio test (row denominators cancel); Bland tie-break on the
            # smallest basic column index.
            leaving = -1
            best_ratio: Optional[Fraction] = None
            for i, row in enumerate(self.rows):
                a = row.get(entering, 0)
                if a > 0:
                    ratio = Fraction(self.rhs[i], a)
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
            if best_ratio == 0:
                stall += 1
                if stall >= STALL_LIMIT:
                    bland = True
            else:
                stall = 0
                bland = False


# ---------------------------------------------------------------------------
# Standard form (sparse, integer)
# ---------------------------------------------------------------------------


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


class _StandardForm:
    """Map model variables to non-negative standard-form columns.

    * lower-bounded ``x >= l``: substitute ``x = l + y``;
    * upper-only ``x <= u``: substitute ``x = u - y``;
    * free: split ``x = y+ - y-``.

    An upper bound on a lower-bounded variable adds the row ``u - x >= 0``.
    """

    def __init__(self, model: ILPModel):
        self.col_names: list[str] = []
        self.var_map: dict[str, tuple] = {}
        self.bound_rows: list[LinearConstraint] = []
        for var in model.variables.values():
            if var.lower is not None:
                col = self._col(var.name)
                self.var_map[var.name] = ("shift", col, Fraction(var.lower))
                if var.upper is not None:
                    self.bound_rows.append(
                        LinearConstraint({var.name: -1}, var.upper, label="ub")
                    )
            elif var.upper is not None:
                col = self._col(var.name + "~neg")
                self.var_map[var.name] = ("neg", col, Fraction(var.upper))
            else:
                cp = self._col(var.name + "~p")
                cm = self._col(var.name + "~m")
                self.var_map[var.name] = ("split", cp, cm)
        self.structural = len(self.col_names)

    def _col(self, name: str) -> int:
        self.col_names.append(name)
        return len(self.col_names) - 1

    def row_for(
        self, coeffs: Mapping[str, int | Fraction], const: int | Fraction
    ) -> tuple[dict[int, int], int, int]:
        """Translate ``expr + const (>=|==) 0`` to ``(row, rhs, den)`` ints."""
        row: dict[int, Fraction] = {}

        def bump(col: int, v: Fraction) -> None:
            nv = row.get(col, _ZERO) + v
            if nv:
                row[col] = nv
            else:
                row.pop(col, None)

        rhs = -Fraction(const)  # expr + const >= 0  =>  expr >= -const
        for name, coef in coeffs.items():
            coef = Fraction(coef)
            kind = self.var_map[name]
            if kind[0] == "shift":
                bump(kind[1], coef)
                rhs -= coef * kind[2]
            elif kind[0] == "neg":
                bump(kind[1], -coef)
                rhs -= coef * kind[2]
            else:
                bump(kind[1], coef)
                bump(kind[2], -coef)
        den = rhs.denominator
        for v in row.values():
            den = _lcm(den, v.denominator)
        introw = {j: int(v * den) for j, v in row.items()}
        return introw, int(rhs * den), den

    def cost_for(self, objective: Mapping[str, int | Fraction]) -> dict[int, Fraction]:
        cost: dict[int, Fraction] = {}
        for name, coef in objective.items():
            coef = Fraction(coef)
            if not coef:
                continue
            kind = self.var_map[name]
            if kind[0] == "shift":
                cost[kind[1]] = cost.get(kind[1], _ZERO) + coef
            elif kind[0] == "neg":
                cost[kind[1]] = cost.get(kind[1], _ZERO) - coef
            else:
                cost[kind[1]] = cost.get(kind[1], _ZERO) + coef
                cost[kind[2]] = cost.get(kind[2], _ZERO) - coef
        return cost

    def recover(self, value_of) -> dict[str, Fraction]:
        out: dict[str, Fraction] = {}
        for name, kind in self.var_map.items():
            if kind[0] == "shift":
                out[name] = value_of(kind[1]) + kind[2]
            elif kind[0] == "neg":
                out[name] = kind[2] - value_of(kind[1])
            else:
                out[name] = value_of(kind[1]) - value_of(kind[2])
        return out


# ---------------------------------------------------------------------------
# Incremental solver (warm-startable)
# ---------------------------------------------------------------------------


class IncrementalLP:
    """A standard-form tableau that persists across a lexmin sequence.

    Construction runs phase 1 once; :meth:`minimize` then runs phase 2 for
    any objective from the current basis, and :meth:`fix` appends an
    equality pinning a model variable to a value, re-using the basis (a
    single-row phase 1 only when the current basic solution violates the new
    row, which never happens when fixing the optimum just computed).
    """

    def __init__(self, model: ILPModel, extra: Sequence[LinearConstraint] = ()):
        self.model = model
        self.sf = _StandardForm(model)
        sf = self.sf
        raw: list[tuple[dict[int, int], int, int, bool]] = []
        for con in list(model.constraints) + list(extra) + sf.bound_rows:
            row, rhs, den = sf.row_for(con.coeffs, con.const)
            raw.append((row, rhs, den, con.equality))

        # One surplus column per inequality row, then normalize signs so every
        # rhs is non-negative; rows whose surplus survives with +1 coefficient
        # seed the basis, the rest get artificials.
        ncols = sf.structural
        rows: list[dict[int, int]] = []
        rhs: list[int] = []
        dens: list[int] = []
        basis: list[int] = []
        art_cols: list[int] = []
        pending_basis: list[Optional[int]] = []
        for row, b, den, equality in raw:
            if not equality:
                sc = ncols
                ncols += 1
                row = dict(row)
                row[sc] = -den  # expr - s = rhs (surplus form)
            else:
                sc = None
            if b < 0:
                row = {j: -v for j, v in row.items()}
                b = -b
                slack_sign = 1
            else:
                slack_sign = -1
            rows.append(row)
            rhs.append(b)
            dens.append(den)
            pending_basis.append(sc if (sc is not None and slack_sign == 1) else None)
        for i, sc in enumerate(pending_basis):
            if sc is not None:
                basis.append(sc)
            else:
                art = ncols
                ncols += 1
                rows[i][art] = dens[i]
                art_cols.append(art)
                basis.append(art)
        self.ncols = ncols
        self.blocked: set[int] = set()
        self.tab = _IntTableau(rows, rhs, dens, basis)
        self.status = LPStatus.OPTIMAL

        if art_cols:
            phase1 = {c: _ONE for c in art_cols}
            status = self.tab.run(phase1)
            if status != LPStatus.OPTIMAL or self.tab.objective_value(phase1) != 0:
                self.status = LPStatus.INFEASIBLE
                return
            self._drive_out(set(art_cols))
            self.blocked = set(art_cols)

    @property
    def pivots(self) -> int:
        return self.tab.pivots

    @property
    def is_feasible(self) -> bool:
        return self.status == LPStatus.OPTIMAL

    def _drive_out(self, arts: set[int]) -> None:
        """Pivot basic artificials (all at value zero) out where possible; a
        row with no eligible nonzero is redundant and keeps its artificial
        harmlessly at zero."""
        tab = self.tab
        for i, b in enumerate(tab.basis):
            if b in arts:
                entering = next(
                    (
                        j
                        for j in sorted(tab.rows[i])
                        if j not in arts and j not in self.blocked and tab.rows[i][j]
                    ),
                    None,
                )
                if entering is not None:
                    tab.pivot(i, entering)

    def minimize(self, objective: Mapping[str, int | Fraction]) -> LPResult:
        """Phase-2 run from the current basis.  Leaves the optimal basis in
        place so a subsequent ``fix``/``minimize`` warm-starts from it."""
        if not self.is_feasible:
            return LPResult(LPStatus.INFEASIBLE)
        for name in objective:
            if name not in self.model.variables:
                raise KeyError(f"objective references unknown variable {name!r}")
        cost = self.sf.cost_for(objective)
        before = self.tab.pivots
        status = self.tab.run(cost, blocked=self.blocked or None)
        spent = self.tab.pivots - before
        if status == LPStatus.UNBOUNDED:
            return LPResult(LPStatus.UNBOUNDED, pivots=spent)
        assignment = self.assignment()
        obj_val = sum(
            (Fraction(c) * assignment[n] for n, c in objective.items()), _ZERO
        )
        return LPResult(LPStatus.OPTIMAL, obj_val, assignment, spent)

    def assignment(self) -> dict[str, Fraction]:
        values: dict[int, Fraction] = {}
        for i, b in enumerate(self.tab.basis):
            values[b] = Fraction(self.tab.rhs[i], self.tab.dens[i])
        return self.sf.recover(lambda c: values.get(c, _ZERO))

    def fix(self, name: str, value: int | Fraction) -> bool:
        """Append ``name == value`` and restore feasibility in place.

        Returns False (and flips the solver infeasible) if the fix cannot be
        satisfied — callers fixing a just-computed optimum never see that.
        """
        return self.add_constraint(
            LinearConstraint({name: 1}, -Fraction(value), equality=True)
        )

    def add_constraint(self, con: LinearConstraint) -> bool:
        """Append one row warm: the current basis is kept, and feasibility is
        restored with a single-artificial phase 1 only when the current basic
        solution violates the new row (branch-and-bound cuts, fixes after an
        integer fallback).  Returns False if the row is unsatisfiable."""
        if not self.is_feasible:
            return False
        tab = self.tab
        introw, irhs, _den = self.sf.row_for(con.coeffs, con.const)
        # Express the new row in the current basis: basic columns are unit
        # vectors, so one sweep over the rows eliminates them all.
        work: dict[int, Fraction] = {j: Fraction(v) for j, v in introw.items()}
        r = Fraction(irhs)
        for i, b in enumerate(tab.basis):
            f = work.get(b)
            if not f:
                continue
            di = tab.dens[i]
            for j, a in tab.rows[i].items():
                nv = work.get(j, _ZERO) - f * Fraction(a, di)
                if nv:
                    work[j] = nv
                else:
                    work.pop(j, None)
            r -= f * Fraction(tab.rhs[i], di)

        surplus: Optional[int] = None
        if not con.equality:
            # expr - s = rhs with s >= 0; at the current point s = -r, so the
            # row is violated exactly when r > 0.
            surplus = self.ncols
            self.ncols += 1
        violated = r > 0 if not con.equality else r != 0
        if not con.equality and r <= 0:
            # Satisfied: negate so the surplus enters the basis at value -r.
            r = -r
            work = {j: -v for j, v in work.items()}
            s_sign = 1
        else:
            s_sign = -1
        if con.equality and r < 0:
            r = -r
            work = {j: -v for j, v in work.items()}
        den = r.denominator
        for v in work.values():
            den = _lcm(den, v.denominator)
        new_row = {j: int(v * den) for j, v in work.items()}
        if surplus is not None:
            new_row[surplus] = s_sign * den
        if violated or con.equality:
            art = self.ncols
            self.ncols += 1
            new_row[art] = den
            basic_col = art
        else:
            art = None
            basic_col = surplus
        tab.rows.append(new_row)
        tab.rhs.append(int(r * den))
        tab.dens.append(den)
        tab.basis.append(basic_col)
        tab._normalize(len(tab.rows) - 1)
        if art is not None and violated:
            status = tab.run({art: _ONE}, blocked=self.blocked or None)
            if status != LPStatus.OPTIMAL or tab.solution_value(art) != 0:
                self.status = LPStatus.INFEASIBLE
                return False
        if art is not None:
            self.blocked.add(art)
            self._drive_out({art})
        return True

    def snapshot(self) -> tuple:
        """Capture the tableau for branch-and-bound backtracking (the pivot
        counter is deliberately not captured: it keeps counting work)."""
        tab = self.tab
        return (
            [dict(r) for r in tab.rows],
            list(tab.rhs),
            list(tab.dens),
            list(tab.basis),
            set(self.blocked),
            self.ncols,
            self.status,
        )

    def restore(self, snap: tuple) -> None:
        rows, rhs, dens, basis, blocked, ncols, status = snap
        tab = self.tab
        tab.rows = [dict(r) for r in rows]
        tab.rhs = list(rhs)
        tab.dens = list(dens)
        tab.basis = list(basis)
        self.blocked = set(blocked)
        self.ncols = ncols
        self.status = status


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def solve_lp(
    model: ILPModel,
    objective: Mapping[str, int | Fraction],
    extra: Sequence[LinearConstraint] = (),
) -> LPResult:
    """Minimize ``objective . x`` subject to the model's constraints and bounds.

    Integer flags are ignored (LP relaxation).
    """
    for name in objective:
        if name not in model.variables:
            raise KeyError(f"objective references unknown variable {name!r}")
    inc = IncrementalLP(model, extra)
    if not inc.is_feasible:
        return LPResult(LPStatus.INFEASIBLE, pivots=inc.pivots)
    result = inc.minimize(objective)
    result.pivots = inc.pivots
    return result
