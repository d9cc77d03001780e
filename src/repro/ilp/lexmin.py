"""Lexicographic minimization driver (Feautrier's ``lexmin``, paper eq. (4)).

Given an :class:`~repro.ilp.model.ILPModel` with an ``objective_order`` —
``(u, w, ..., c_sum, c_i, d_i, c_0, delta, delta_l, ...)`` in the Pluto+
formulation, eq. (8) — the driver minimizes each variable in turn, pinning
the optimum before moving to the next.  This is the standard reduction of
``lexmin`` to a sequence of single-objective ILPs.

The paper solves small models with PIP and large ones with GLPK (swim's
219 variables).  Here HiGHS answers every lexmin (``backend="highs"``, the
default and the pipeline's only choice, :mod:`repro.ilp.highs_backend`),
whatever the model's size: each rounded optimum is verified exactly, and
the exact solver answers when the check fails.  ``backend="exact"`` runs
the same loop on the integer-scaled simplex + branch-and-bound
(:mod:`repro.ilp.simplex` / :mod:`repro.ilp.branch_bound`); no pipeline
code selects it — it is the reference the tests compare HiGHS against.

The exact backend is **warm-started**: one :class:`IncrementalLP` tableau is
built (one phase 1) and persists across the whole objective sequence — after
objective ``k`` is pinned via :meth:`IncrementalLP.fix`, objective ``k+1``
re-optimizes from the previous optimal basis, and branch-and-bound cuts are
applied warm on snapshots.  Two solve-avoidance shortcuts run first:

* the driver holds a feasible assignment satisfying all fixings; when the
  next objective variable already sits at its lower bound there, its minimum
  is known and no solve is issued (most ``delta``/coefficient variables
  resolve this way);
* otherwise a *feasible-assignment probe* sets **all** remaining objective
  variables to their lower bounds at once and checks the model; if feasible,
  every remaining minimum is known and the sequence finishes with no further
  solves.

There is one objective loop (shortcut, probe, fold, solve, pin); a backend
only supplies how one objective is solved and how its optimum is pinned —
the exact backend on its live tableau, HiGHS on a :class:`HighsSession`
(one assembled matrix per call, pins as ``lb = ub``).

A solve does not ask about one variable when it can ask about several: each
maximal run of *bounded integer* variables in the order — ``(csum_S,
c_S.i1..im)``, ``(delta_S, delta_l_S)`` — is folded into one mixed-radix
objective (:func:`_fold`), whose minimum is exactly the run's lexicographic
minimum: the same digits-in-``[-b, b]`` idea the paper uses to avoid the
zero solution with one binary (Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Mapping, Optional, Sequence

from repro.ilp.branch_bound import ILPResult, ILPStatus, solve_ilp_warm
from repro.ilp.highs_backend import HighsSession
from repro.ilp.model import ILPModel, SolveStats
from repro.ilp.simplex import IncrementalLP

__all__ = ["LexminResult", "lexmin"]

#: A folded objective spans at most this many values.  HiGHS accepts an
#: integer column within 1e-6 of an integer (``mip_feasibility_tolerance``),
#: so a weight ``w`` can shift the objective by ``1e-6 * w`` without moving
#: the rounded point; at ``w <= 1e5`` that is 0.1, never a whole objective
#: unit, so no digit of the fold can hide behind the tolerance.  ``(csum,
#: c x 3)`` at coefficient bound 4 spans 13 * 9**3 = 9477; a 4-deep
#: statement (17 * 9**4 = 111537) splits after its third coefficient.
FOLD_LIMIT = 10**5


@dataclass
class LexminResult:
    status: str
    assignment: dict[str, Fraction] = field(default_factory=dict)
    values: list[Fraction] = field(default_factory=list)  # per objective var
    stats: SolveStats = field(default_factory=SolveStats)
    solves: int = 0
    backend: str = ""

    @property
    def is_optimal(self) -> bool:
        return self.status == ILPStatus.OPTIMAL

    def value_of(self, name: str) -> Fraction:
        return self.assignment[name]


def _probe_lower_bounds(
    session: HighsSession,
    current: Mapping[str, Fraction],
    remaining: Sequence[str],
) -> Optional[dict[str, Fraction]]:
    """The feasible-assignment probe: set every remaining objective variable
    to its lower bound at once and keep everything else from ``current``.

    If that assignment satisfies the model, each remaining variable is at its
    global minimum given the fixings (the probe witnesses feasibility of all
    the lower bounds simultaneously), so the lexmin tail is decided without
    issuing another solve.  Returns the witness, or ``None``.
    """
    probe = dict(current)
    changed = False
    for name in remaining:
        lower = session.model.variables[name].lower
        if lower is None:
            return None
        if probe[name] != lower:
            probe[name] = Fraction(lower)
            changed = True
    if not changed:
        return None  # the per-variable shortcut already covers this
    return probe if session.satisfies(probe) else None


def _fold(model: ILPModel, order: Sequence[str], k: int) -> dict[str, int]:
    """The objective for position ``k``: ``order[k]`` and the bounded integer
    variables following it, weighted so that the sum orders like the tuple.

    With ``r_i = upper_i - lower_i + 1`` values per variable and weights
    ``w_i = r_{i+1} * ... * r_m``, ``sum(w_i * x_i)`` is a mixed-radix
    number whose digits are the ``x_i - lower_i``: comparing sums compares
    the tuples lexicographically.  The run stops at a continuous or
    unbounded variable and before its span would pass :data:`FOLD_LIMIT`.
    """
    def span(name: str) -> Optional[int]:
        var = model.variables[name]
        if not var.integer or var.lower is None or var.upper is None:
            return None
        return var.upper - var.lower + 1

    total = span(order[k])
    if total is None:
        return {order[k]: 1}
    run = [(order[k], total)]
    for name in order[k + 1 :]:
        size = span(name)
        if size is None or total * size > FOLD_LIMIT:
            break
        run.append((name, size))
        total *= size
    weights = {}
    for name, size in run:
        total //= size
        weights[name] = total
    return weights


def _warm_exact_steps(model: ILPModel, node_limit: int, stats: SolveStats):
    """The exact backend's ``(solve, pin)`` pair: one persistent tableau
    (one phase 1), warm phase 2 per objective, warm branch-and-bound when a
    relaxation is fractional, and pins applied as in-place fixes."""
    inc = IncrementalLP(model)
    stats.lp_solves += 1  # the shared phase 1
    stats.simplex_pivots += inc.pivots

    def solve(objective: Mapping[str, int]) -> ILPResult:
        if not inc.is_feasible:
            return ILPResult(ILPStatus.INFEASIBLE)
        result, at_root = solve_ilp_warm(inc, model, objective, node_limit)
        stats.warm_starts += at_root
        return result

    def pin(name: str, value: Fraction) -> None:
        before = inc.pivots
        inc.fix(name, value)
        stats.simplex_pivots += inc.pivots - before

    return solve, pin


def lexmin(
    model: ILPModel, node_limit: int = 20000, backend: str = "highs"
) -> LexminResult:
    """Lexicographically minimize ``model.objective_order`` over the model.

    Returns the optimal assignment (covering *all* model variables) or an
    infeasible/unbounded status.  Variables outside the objective order take
    whatever value the final solve produced.  ``backend`` is ``"highs"`` or
    the tests' ``"exact"`` reference.
    """
    if not model.objective_order:
        raise ValueError("model has no objective order set")
    if backend not in ("highs", "exact"):
        raise ValueError(f"unknown ILP backend {backend!r}")
    stats = SolveStats()
    session = HighsSession(model)  # also the probe's exact integer rows
    if backend == "exact":
        solve, pin = _warm_exact_steps(model, node_limit, stats)
    else:
        solve, pin = partial(session.solve, node_limit=node_limit), session.pin

    values: list[Fraction] = []
    current: Optional[dict[str, Fraction]] = None
    solves = 0
    order = model.objective_order
    while len(values) < len(order):
        k = len(values)
        lower = model.variables[order[k]].lower
        if current is not None and lower is not None and current[order[k]] == lower:
            # Already at its lower bound in a feasible assignment: optimal.
            stats.shortcut_hits += 1
            solved = [order[k]]
        else:
            if current is not None:
                probe = _probe_lower_bounds(session, current, order[k:])
                if probe is not None:
                    stats.probe_hits += 1
                    current = probe
                    values.extend(probe[n] for n in order[k:])
                    break
            objective = _fold(model, order, k)
            result = solve(objective)
            solves += 1
            stats.merge(result.stats)
            if not result.is_optimal:
                return LexminResult(
                    result.status, stats=stats, solves=solves, backend=backend
                )
            current = result.assignment
            solved = list(objective)
        for name in solved:
            pin(name, current[name])
            values.append(current[name])

    assert current is not None
    # Re-pin the recorded values (the last solve may predate later implicit
    # lower-bound fixings, but those were taken *from* ``current`` so it is
    # consistent by construction).
    for name, value in zip(order, values):
        current[name] = value
    return LexminResult(
        ILPStatus.OPTIMAL, dict(current), values, stats, solves, backend
    )
