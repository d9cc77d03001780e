"""Integer linear programming with a lexicographic objective.

HiGHS answers every lexmin the pipeline asks, in the roles PIP and GLPK
share in the paper.  The exact solver (integer-scaled simplex +
branch-and-bound) verifies the rounded HiGHS points it cannot confirm, and
is the reference the tests compare HiGHS against.
"""

from repro.ilp.branch_bound import (
    BranchAndBoundError,
    ILPResult,
    ILPStatus,
    solve_ilp,
    solve_ilp_warm,
)
from repro.ilp.highs_backend import HighsSession
from repro.ilp.lexmin import LexminResult, lexmin
from repro.ilp.model import (
    ILPModel,
    LinearConstraint,
    SolveStats,
    Variable,
)
from repro.ilp.simplex import IncrementalLP, LPResult, LPStatus, solve_lp

__all__ = [
    "BranchAndBoundError",
    "HighsSession",
    "ILPModel",
    "ILPResult",
    "ILPStatus",
    "IncrementalLP",
    "LexminResult",
    "LinearConstraint",
    "LPResult",
    "LPStatus",
    "SolveStats",
    "Variable",
    "lexmin",
    "solve_ilp",
    "solve_lp",
]
