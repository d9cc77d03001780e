"""Lexicographic minimization driver (Feautrier's ``lexmin``, paper eq. (4)).

Given an :class:`~repro.ilp.model.ILPModel` with an ``objective_order`` —
``(u, w, ..., c_sum, c_i, d_i, c_0, delta, delta_l, ...)`` in the Pluto+
formulation, eq. (8) — the driver minimizes each variable in turn, pinning
the optimum before moving to the next.  This is the standard reduction of
``lexmin`` to a sequence of single-objective ILPs.

Two backends are available, mirroring the paper's PIP/GLPK split:

* ``"exact"`` — integer-scaled simplex + branch-and-bound
  (:mod:`repro.ilp.simplex` / :mod:`repro.ilp.branch_bound`);
* ``"highs"`` — scipy/HiGHS (:mod:`repro.ilp.highs_backend`);
* ``"auto"`` — exact below :data:`AUTO_THRESHOLD` variables *and*
  :data:`AUTO_CONSTRAINT_THRESHOLD` constraints, HiGHS beyond (the paper
  switched to GLPK for models with 100+ variables, e.g. swim's 219).

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

There is one objective loop (shortcut, probe, solve, pin); a backend only
supplies how one objective is solved and how its optimum is pinned — the
exact backend on its live tableau, HiGHS by appending an equality row to the
next cold solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from repro.ilp.branch_bound import ILPResult, ILPStatus, solve_ilp, solve_ilp_warm
from repro.ilp.highs_backend import solve_ilp_highs
from repro.ilp.model import ILPModel, LinearConstraint, SolveStats
from repro.ilp.simplex import IncrementalLP

__all__ = [
    "LexminResult",
    "lexmin",
    "pick_backend",
    "AUTO_THRESHOLD",
    "AUTO_CONSTRAINT_THRESHOLD",
]

AUTO_THRESHOLD = 80
#: beyond this many constraints the pure-Python exact simplex is too slow
AUTO_CONSTRAINT_THRESHOLD = 60

Backend = Callable[..., ILPResult]

_BACKENDS: dict[str, Backend] = {
    "exact": solve_ilp,
    "highs": solve_ilp_highs,
}


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


def pick_backend(
    model: ILPModel,
    backend: str,
    auto_threshold: int = AUTO_THRESHOLD,
    auto_constraint_threshold: int = AUTO_CONSTRAINT_THRESHOLD,
):
    """Resolve a backend name to (callable, resolved-name).

    ``"auto"`` mirrors the paper's solver split (PIP for ordinary models,
    GLPK for large ones, e.g. swim's 219 variables): the exact backend is
    used for small models, HiGHS beyond ``auto_threshold`` variables **or**
    ``auto_constraint_threshold`` constraints — the exact simplex cost grows
    with the row count as much as with the column count, so both axes gate
    the switch.
    """
    if backend == "auto":
        small = (
            model.num_variables <= auto_threshold
            and model.num_constraints <= auto_constraint_threshold
        )
        backend = "exact" if small else "highs"
    try:
        return _BACKENDS[backend], backend
    except KeyError:
        raise ValueError(f"unknown ILP backend {backend!r}") from None


def _probe_lower_bounds(
    model: ILPModel,
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
        var = model.variables[name]
        if var.lower is None:
            return None
        lo = Fraction(var.lower)
        if probe[name] != lo:
            probe[name] = lo
            changed = True
    if not changed:
        return None  # the per-variable shortcut already covers this
    return probe if model.check(probe) else None


def _warm_exact_steps(model: ILPModel, node_limit: int, stats: SolveStats):
    """The exact backend's ``(solve, pin)`` pair: one persistent tableau
    (one phase 1), warm phase 2 per objective, warm branch-and-bound when a
    relaxation is fractional, and pins applied as in-place fixes."""
    inc = IncrementalLP(model)
    stats.lp_solves += 1  # the shared phase 1
    stats.simplex_pivots += inc.pivots

    def solve(name: str) -> ILPResult:
        if not inc.is_feasible:
            return ILPResult(ILPStatus.INFEASIBLE)
        result, at_root = solve_ilp_warm(inc, model, {name: 1}, node_limit)
        stats.warm_starts += at_root
        return result

    def pin(name: str, value: Fraction) -> None:
        before = inc.pivots
        inc.fix(name, value)
        stats.simplex_pivots += inc.pivots - before

    return solve, pin


def _cold_steps(model: ILPModel, backend: Backend, node_limit: int):
    """A stateless backend's ``(solve, pin)`` pair: pins accumulate as
    equality rows handed to one cold solve per objective."""
    fixings: list[LinearConstraint] = []

    def solve(name: str) -> ILPResult:
        return backend(
            model, {name: 1}, extra=tuple(fixings), node_limit=node_limit
        )

    def pin(name: str, value: Fraction) -> None:
        fixings.append(
            LinearConstraint({name: 1}, -value, equality=True, label=f"fix:{name}")
        )

    return solve, pin


def lexmin(
    model: ILPModel,
    backend: str = "auto",
    auto_threshold: int = AUTO_THRESHOLD,
    node_limit: int = 20000,
) -> LexminResult:
    """Lexicographically minimize ``model.objective_order`` over the model.

    Returns the optimal assignment (covering *all* model variables) or an
    infeasible/unbounded status.  Variables outside the objective order take
    whatever value the final solve produced.
    """
    if not model.objective_order:
        raise ValueError("model has no objective order set")
    solver, backend_name = pick_backend(model, backend, auto_threshold)
    stats = SolveStats()
    if backend_name == "exact":
        solve, pin = _warm_exact_steps(model, node_limit, stats)
    else:
        solve, pin = _cold_steps(model, solver, node_limit)

    values: list[Fraction] = []
    current: Optional[dict[str, Fraction]] = None
    solves = 0
    order = model.objective_order
    for k, name in enumerate(order):
        var = model.variables[name]
        if (
            current is not None
            and var.lower is not None
            and current[name] == var.lower
        ):
            # Already at its lower bound in a feasible assignment: optimal.
            value = Fraction(var.lower)
            stats.shortcut_hits += 1
        else:
            if current is not None:
                probe = _probe_lower_bounds(model, current, order[k:])
                if probe is not None:
                    stats.probe_hits += 1
                    current = probe
                    values.extend(
                        Fraction(model.variables[n].lower) for n in order[k:]
                    )
                    break
            result = solve(name)
            solves += 1
            stats.merge(result.stats)
            if not result.is_optimal:
                return LexminResult(
                    result.status, stats=stats, solves=solves, backend=backend_name
                )
            value = result.objective
            current = result.assignment
        pin(name, value)
        values.append(value)

    assert current is not None
    # Re-pin the recorded values (the last solve may predate later implicit
    # lower-bound fixings, but those were taken *from* ``current`` so it is
    # consistent by construction).
    for name, value in zip(order, values):
        current[name] = value
    return LexminResult(
        ILPStatus.OPTIMAL, dict(current), values, stats, solves, backend_name
    )
