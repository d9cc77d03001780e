"""Integer linear programming with a lexicographic objective.

HiGHS answers every lexmin the pipeline asks, in the roles PIP and GLPK
share in the paper, and every rounded point it returns is verified exactly.
When it cannot answer — a point that fails the check twice, its work limit
reached twice — :class:`SolverError` says so; it is never read as
"infeasible".  The exact solver (integer-scaled simplex + branch-and-bound)
is the tests' oracle, under ``tests/ilp/``.
"""

from repro.ilp.highs_backend import HighsSession
from repro.ilp.lexmin import LexminResult, lexmin
from repro.ilp.model import (
    ILPModel,
    ILPResult,
    ILPStatus,
    LinearConstraint,
    SolveStats,
    SolverError,
    Variable,
)

__all__ = [
    "HighsSession",
    "ILPModel",
    "ILPResult",
    "ILPStatus",
    "LexminResult",
    "LinearConstraint",
    "SolveStats",
    "SolverError",
    "Variable",
    "lexmin",
]
