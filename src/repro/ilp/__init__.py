"""Integer linear programming with a lexicographic objective.

The exact backend (integer-scaled simplex + branch-and-bound) plays the role
PIP plays in the paper; the HiGHS backend plays GLPK's role for large models.
"""

from repro.ilp.branch_bound import (
    BranchAndBoundError,
    ILPResult,
    ILPStatus,
    solve_ilp,
    solve_ilp_warm,
)
from repro.ilp.highs_backend import HighsSession, solve_ilp_highs
from repro.ilp.lexmin import (
    AUTO_CONSTRAINT_THRESHOLD,
    AUTO_THRESHOLD,
    LexminResult,
    lexmin,
    pick_backend,
)
from repro.ilp.model import (
    ILPModel,
    LinearConstraint,
    SolveStats,
    Variable,
)
from repro.ilp.simplex import IncrementalLP, LPResult, LPStatus, solve_lp

__all__ = [
    "AUTO_CONSTRAINT_THRESHOLD",
    "AUTO_THRESHOLD",
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
    "pick_backend",
    "solve_ilp",
    "solve_ilp_highs",
    "solve_lp",
]
