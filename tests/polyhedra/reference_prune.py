"""Reference redundancy pruning: the sequential sweep, one exact LP per row.

This is ``repro.polyhedra.fourier_motzkin.prune_redundant_rows`` as it stood
before the undecided rows were batched into block LPs (commit 4ce864d): the
two row rules over its own private equality elimination, then one LP per
undecided row, in order, against the rows kept so far.  It exists only so
the hypothesis tests in ``test_prune_rules.py`` can require the batched
stage to return *the same list in the same order*.  The LP is the dense
``Fraction`` simplex of ``tests/ilp/reference_lp.py``, so nothing here
touches HiGHS, numpy or the code under test.  Do not optimize it — slow and
obvious is the point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from repro.ilp import ILPModel
from tests.ilp.reference_lp import solve_lp_fraction
from tests.ilp.simplex import LPStatus


def free_model(rows, n):
    """``(model, names)``: ``rows`` over ``n`` free rational variables."""
    model = ILPModel()
    names = [f"x{i}" for i in range(n)]
    for name in names:
        model.add_variable(name, lower=None, upper=None, integer=False)
    for coeffs, equality in rows:
        model.add_constraint(dict(zip(names, coeffs[:-1])), coeffs[-1], equality)
    return model, names


def exact_min(rows, objective):
    """Exact ``min objective.x`` over ``rows`` (free rational variables)."""
    model, names = free_model(rows, len(objective))
    return solve_lp_fraction(model, dict(zip(names, objective)))


def sweep_prune(rows):
    """``equalities + surviving inequalities``, decided row by row."""
    eqs = [r for r in rows if r[1]]
    ineqs = [r for r in rows if not r[1]]
    if len(ineqs) <= 1:
        return list(rows)
    live, sole = _row_rules(eqs, ineqs)
    keep = [i in live for i in range(len(ineqs))]
    for i in live:
        if i in sole:
            continue
        keep[i] = False
        others = eqs + [row for row, kept in zip(ineqs, keep) if kept]
        res = exact_min(others, ineqs[i][0][:-1])
        # an infeasible or unbounded LP decides nothing: the row stays
        keep[i] = not (
            res.status == LPStatus.OPTIMAL and res.objective >= -ineqs[i][0][-1]
        )
    return eqs + [row for row, kept in zip(ineqs, keep) if kept]


def _row_rules(eqs, ineqs):
    pivots = []
    reduced = []
    for coeffs, equality in eqs + ineqs:
        for col, piv in pivots:
            if coeffs[col]:
                scale = abs(piv[col])
                back = coeffs[col] if piv[col] > 0 else -coeffs[col]
                coeffs = tuple(scale * c - back * p for c, p in zip(coeffs, piv))
        g = gcd(*coeffs[:-1])
        if g == 0 and (coeffs[-1] < 0 or (equality and coeffs[-1])):
            return list(range(len(ineqs))), set(range(len(ineqs)))
        if not equality:
            slope = tuple(c // g for c in coeffs[:-1]) if g else ()
            reduced.append((slope, Fraction(coeffs[-1], g or 1)))
        elif g:
            pivots.append((next(i for i, c in enumerate(coeffs) if c), coeffs))

    tightest = {}
    for i, (slope, const) in enumerate(reduced):
        if slope and (slope not in tightest or const <= reduced[tightest[slope]][1]):
            tightest[slope] = i
    live = sorted(tightest.values())
    sole = set()
    for col in zip(*(reduced[i][0] for i in live)):
        for sign in (1, -1):
            side = [i for i, c in zip(live, col) if c * sign > 0]
            if len(side) == 1:
                sole.add(side[0])
    return live, sole
