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
* **LP feasible**  -> fall back to the exact integer check; the relaxation
  may still be integer-empty.
"""

from __future__ import annotations

from math import gcd

import numpy as np
from scipy import optimize

from repro.polyhedra.cache import MISS, active_cache
from repro.polyhedra.sets import BasicSet

__all__ = ["fast_reject", "lp_feasible", "set_is_empty"]


def _lp_solve(bs: BasicSet):
    """Solve the rational feasibility LP; returns the scipy result."""
    n = len(bs.space.names)
    rows = np.array([con.coeffs for con in bs.constraints], dtype=float)
    rows = rows.reshape(-1, n + 1)
    eq = np.array([con.equality for con in bs.constraints], dtype=bool)
    # expr + const >= 0  ->  -expr <= const;  expr + const == 0  ->  expr == -const
    return optimize.linprog(
        c=np.zeros(n),
        A_ub=-rows[~eq, :-1],
        b_ub=rows[~eq, -1],
        A_eq=rows[eq, :-1],
        b_eq=-rows[eq, -1],
        bounds=(None, None),
        method="highs",
    )


def lp_feasible(bs: BasicSet) -> bool:
    """Whether the rational relaxation of ``bs`` is non-empty."""
    # status 2 = infeasible; anything else (optimal/unbounded) means feasible
    return _lp_solve(bs).status != 2


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
        first = next((v for v in var if v != 0), 0)
        if first == 0:
            if con.is_contradiction():
                return True
            continue
        if con.equality:
            g = 0
            for v in var:
                g = gcd(g, abs(v))
            if c % g != 0:
                return True
        if first < 0:
            slope = tuple(-v for v in var)
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


def set_is_empty(bs: BasicSet) -> bool:
    """Exact integer emptiness: fast-reject, memo, LP pre-filter, exact ILP.

    With the fast path disabled (``REPRO_DEPS_NO_CACHE=1`` or
    :func:`repro.polyhedra.cache.cache_disabled`) this degrades to the seed
    behavior: LP pre-filter plus exact fallback, nothing skipped or reused.
    """
    if any(c.is_contradiction() for c in bs.constraints):
        return True
    cache = active_cache()
    if cache is not None:
        if fast_reject(bs):
            cache.stats.fast_rejects += 1
            return True
        hit = cache.get_empty(bs.content_key())
        if hit is not MISS:
            return hit
        res = _lp_solve(bs)
        if res.status == 2:
            cache.put_empty(bs.content_key(), True)
            return True
        if _integer_witness(bs, res.x):
            cache.put_empty(bs.content_key(), False)
            return False
        return bs.is_empty()  # consults and fills the same memo table
    if not lp_feasible(bs):
        return True
    return bs.is_empty()
