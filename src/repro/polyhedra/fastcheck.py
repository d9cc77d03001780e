"""Fast floating-point feasibility pre-checks (scipy/HiGHS).

Dependence analysis on the larger workloads (LBM d3q27 after index-set
splitting) issues tens of thousands of emptiness tests; running the exact
rational simplex on each is prohibitive in pure Python.  HiGHS decides
rational feasibility of these tiny integer-coefficient systems in a fraction
of a millisecond:

* **LP infeasible** -> the set is empty (the rational relaxation contains the
  integer points).  HiGHS determines infeasibility with a certificate; on
  unit-scale integer data a wrong answer would require pathological
  conditioning that these systems cannot exhibit.
* **LP feasible**  -> a rounded LP point that lies in the set proves it
  non-empty; otherwise the exact integer check decides (the relaxation may
  still be integer-empty).

:meth:`BasicSet.is_empty <repro.polyhedra.sets.BasicSet.is_empty>` runs
these checks in that order, around the PolyCache ``empty`` memo.
"""

from __future__ import annotations

from math import gcd, inf
from typing import TYPE_CHECKING

import numpy as np

from repro.ilp import highs_backend

if TYPE_CHECKING:
    from repro.polyhedra.sets import BasicSet

__all__ = ["fast_reject", "lp_feasible", "reduced_reject"]


def _lp_solve(a, rhs, eq):
    """Solve the rational feasibility LP; returns the door's result."""
    return highs_backend.highs(np.zeros(a.shape[1]), a, rhs, np.where(eq, rhs, np.inf))


def lp_feasible(bs: BasicSet) -> bool:
    """Whether the rational relaxation of ``bs`` is non-empty."""
    # Only status 2 proves infeasibility.  0 and 3 (unbounded) are feasible;
    # 4 ("unbounded or infeasible") and 1 (work limit) are undecided, read
    # as "not proven empty": the exact integer check runs and decides.
    return _lp_solve(*bs._arrays()).status != 2


def _integer_witness(bs: BasicSet, point) -> bool:
    """Whether rounding the LP point yields an integer point of ``bs``.

    A successful witness proves non-emptiness without the exact ILP; a
    failed one proves nothing (the exact check still runs).
    """
    if point is None:
        return False
    values = {
        name: int(round(float(v))) for name, v in zip(bs.space.names, point)
    }
    return bs.contains(values)


def fast_reject(bs: BasicSet) -> bool:
    """Cheap, sound emptiness proofs — no LP/ILP call.

    Two rules, both exact rejections (``True`` always means empty):

    * **gcd**: an equality whose variable-coefficient gcd does not divide its
      constant has no integer solution (``Constraint`` normalization keeps
      such rows un-divided precisely so this test can see them);
    * **per-slope interval clash**: rows are bucketed by their (sign-
      canonicalized) variable-coefficient vector ``s``; each bucket
      accumulates the tightest lower and upper bound on the common value
      ``s.x``.  An empty interval — e.g. the conflict equality ``t - s == 0``
      against the happens-before row ``t - s >= 1``, the dominant shape of
      empty dependence polyhedra — proves emptiness.

    Inequality rows arrive gcd-normalized with floor-tightened constants, so
    same-slope bounds compare as plain integers.
    """
    intervals: dict[tuple[int, ...], list] = {}
    for con in bs.constraints:
        coeffs = con.coeffs
        var = coeffs[:-1]
        c = coeffs[-1]
        first = next(filter(None, var), 0)
        if first == 0:
            if con.is_contradiction():
                return True
            continue
        if con.equality:
            if c % gcd(*var) != 0:
                return True
        if first < 0:
            slope = tuple([-v for v in var])
            flipped = True
        else:
            slope = var
            flipped = False
        bounds = intervals.setdefault(slope, [None, None])  # [lo, hi] of s.x
        if con.equality:
            value = c if flipped else -c
            if bounds[0] is None or value > bounds[0]:
                bounds[0] = value
            if bounds[1] is None or value < bounds[1]:
                bounds[1] = value
        elif flipped:
            if bounds[1] is None or c < bounds[1]:   # s.x <= c
                bounds[1] = c
        else:
            if bounds[0] is None or -c > bounds[0]:  # s.x >= -c
                bounds[0] = -c
        if bounds[0] is not None and bounds[1] is not None and bounds[0] > bounds[1]:
            return True
    return False


def reduced_reject(bs: BasicSet) -> bool:
    """The per-slope clash on the reduced form; ``True`` always means empty.

    With the equalities substituted out (:meth:`BasicSet.reduced`), bounds
    that :func:`fast_reject` sees under different slopes — source and target
    iterators of one dependence — meet under one: ``s.x + c1 >= 0`` and
    ``-s.x + c2 >= 0`` clash when ``c1 + c2 < 0``.
    """
    reduced = bs.reduced()[1]
    if reduced is None:
        return True
    tightest: dict[tuple[int, ...], object] = {}
    for slope, const in reduced:
        if const < tightest.get(slope, inf):
            tightest[slope] = const
    return any(
        const + tightest.get(tuple(-c for c in slope), inf) < 0
        for slope, const in tightest.items()
    )
