"""ILP model container shared by the exact and HiGHS solver backends.

The scheduler builds one :class:`ILPModel` per hyperplane search.  A model is
a list of named variables (with bounds and integrality), linear constraints in
``expr >= 0`` / ``expr == 0`` form, and a lexicographic objective: a list of
variables to be minimized in decreasing priority (Feautrier's ``lexmin``,
paper eq. (4)/(8)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from repro.records import Record

__all__ = [
    "Variable",
    "LinearConstraint",
    "ILPModel",
    "SolveStats",
    "INF",
]

INF = float("inf")


@dataclass(frozen=True)
class Variable:
    """A decision variable.

    ``lower``/``upper`` may be ``None`` for an unbounded side.  All scheduler
    variables are integer; the ``integer`` flag exists so the LP relaxation
    machinery can be tested independently.
    """

    name: str
    lower: Optional[int] = 0
    upper: Optional[int] = None
    integer: bool = True

    def __post_init__(self) -> None:
        if (
            self.lower is not None
            and self.upper is not None
            and self.lower > self.upper
        ):
            raise ValueError(f"variable {self.name}: lower > upper")


@dataclass(frozen=True)
class LinearConstraint:
    """``sum(coeffs[v] * v) + const  (>= | ==)  0``."""

    coeffs: Mapping[str, int | Fraction]
    const: int | Fraction = 0
    equality: bool = False
    label: str = ""

    def evaluate(self, assignment: Mapping[str, int | Fraction]) -> Fraction:
        total = Fraction(self.const)
        for name, coef in self.coeffs.items():
            total += Fraction(coef) * Fraction(assignment[name])
        return total

    def is_satisfied(self, assignment: Mapping[str, int | Fraction]) -> bool:
        value = self.evaluate(assignment)
        return value == 0 if self.equality else value >= 0


class ILPModel:
    """A mutable ILP model with a lexicographic minimization objective."""

    def __init__(self) -> None:
        self.variables: dict[str, Variable] = {}
        self.constraints: list[LinearConstraint] = []
        self.objective_order: list[str] = []

    # -- construction ------------------------------------------------------

    def add_variable(
        self,
        name: str,
        lower: Optional[int] = 0,
        upper: Optional[int] = None,
        integer: bool = True,
    ) -> Variable:
        if name in self.variables:
            raise ValueError(f"duplicate variable {name!r}")
        var = Variable(name, lower, upper, integer)
        self.variables[name] = var
        return var

    def add_constraint(
        self,
        coeffs: Mapping[str, int | Fraction],
        const: int | Fraction = 0,
        equality: bool = False,
        label: str = "",
    ) -> LinearConstraint:
        for name in coeffs:
            if name not in self.variables:
                raise KeyError(f"constraint references unknown variable {name!r}")
        con = LinearConstraint(dict(coeffs), const, equality, label)
        self.constraints.append(con)
        return con

    def set_objective_order(self, names: Sequence[str]) -> None:
        """Set the ``lexmin`` priority order; every name must be a variable."""
        missing = [n for n in names if n not in self.variables]
        if missing:
            raise KeyError(f"objective references unknown variables {missing}")
        self.objective_order = list(names)

    def clone(self) -> "ILPModel":
        """Shallow copy (variables/constraints are immutable, so sharing them
        is safe); used by the scheduler to extend a cached band skeleton with
        per-level rows without rebuilding the Farkas system."""
        out = ILPModel()
        out.variables = dict(self.variables)
        out.constraints = list(self.constraints)
        out.objective_order = list(self.objective_order)
        return out

    # -- inspection ----------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def var_names(self) -> list[str]:
        return list(self.variables)

    def check(self, assignment: Mapping[str, int | Fraction]) -> bool:
        """Whether ``assignment`` satisfies every constraint and bound."""
        for var in self.variables.values():
            value = Fraction(assignment[var.name])
            if var.lower is not None and value < var.lower:
                return False
            if var.upper is not None and value > var.upper:
                return False
            if var.integer and value.denominator != 1:
                return False
        return all(c.is_satisfied(assignment) for c in self.constraints)

    def __repr__(self) -> str:
        return (
            f"ILPModel({self.num_variables} vars, {self.num_constraints} "
            f"constraints, lexmin over {len(self.objective_order)})"
        )


@dataclass
class SolveStats(Record):
    """Counters reported by the solver stack (``--stats``, ablation benches).

    ``simplex_pivots``/``bb_nodes``/``lp_solves`` come from the backends;
    ``warm_starts``/``shortcut_hits``/``probe_hits`` from the lexmin driver
    (objectives resolved from a warm tableau, the at-lower-bound shortcut,
    and the all-remaining-at-lower-bounds feasibility probe); ``dedup_rows``/
    ``models_reused`` from the scheduler's model construction;
    ``structural_warm_start`` counts whole per-level solves answered by
    replaying a cross-request skeleton record (``repro.core.skeleton``)
    without building or solving a model at all; and ``solve_seconds`` is
    wall time spent inside ILP solves.
    """

    simplex_pivots: int = 0
    bb_nodes: int = 0
    lp_solves: int = 0
    warm_starts: int = 0
    shortcut_hits: int = 0
    probe_hits: int = 0
    dedup_rows: int = 0
    models_reused: int = 0
    structural_warm_start: int = 0
    solve_seconds: float = 0.0
