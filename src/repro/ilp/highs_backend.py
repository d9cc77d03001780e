"""MILP backend on HiGHS, through the bindings scipy ships.

This plays the roles PIP and GLPK share in the paper (GLPK took the models
above roughly one hundred variables; swim's Pluto+ model had 219): every
lexmin the pipeline asks is solved here, whatever its size, and a
:meth:`HighsSession.solve` answers with an :class:`ILPResult`.

All scheduler models have pure-integer data and modest magnitudes, so the
floating-point optimum is rounded to the nearest integer vector and verified
against the model before being returned.  A point that fails that check is
asked once more of the whole model; if that point fails too the session
raises :class:`~repro.ilp.model.SolverError`, never "infeasible".  The
exact simplex and branch-and-bound are the tests' oracle (``tests/ilp/``),
not a fallback.

A :class:`HighsSession` assembles one model for HiGHS once — names, bounds,
integrality, an integer matrix and its CSC — and then answers any number of
objectives over it; the lexmin driver keeps one per call, pins by setting
``lb = ub``, and runs its lower-bound probe as one exact integer mat-vec.
Given a feasible point, a session hands HiGHS only the objective's
component of the model, the other columns held at the point's values.

This is the only module that loads HiGHS's own pybind11 module, which scipy
builds as ``scipy.optimize._highspy._core`` (:func:`_load_highs`: from its
file, so that ``scipy.optimize``'s package never runs), and :func:`highs` its
only entry: sessions, ``BasicSet``'s anonymous integer questions
(:func:`solve_rows`), ``fastcheck``'s feasibility LP and the pruning LPs
(:func:`block_minima`) all enter HiGHS through it.  The door builds the
column-wise matrix HiGHS takes itself (:class:`CSC`), in numpy.  Each thread
keeps one HiGHS across its entries, cleared and reset to HiGHS's defaults at
each.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import threading
from fractions import Fraction
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from math import lcm
from typing import Mapping, NamedTuple

import numpy as np

from repro.ilp.model import ILPModel, ILPResult, ILPStatus, SolveStats, SolverError

__all__ = ["CSC", "HighsSession", "block_minima", "highs", "solve_rows"]


def _load_highs():
    """HiGHS's bindings, ``scipy.optimize._highspy._core``, loaded from
    their file under scipy's install.

    Imported by name, the module first runs ``scipy.optimize``'s package
    ``__init__``, which imports linalg, special, sparse, spatial, fft and
    ``numpy.f2py``: ~0.4 s of every process's start, for nothing the door
    uses (``_highspy``'s own ``__init__`` is empty).  The module goes into
    ``sys.modules`` under its own name before it runs, so a later ``import
    scipy.optimize`` reuses this very module and ``_Highs`` keeps one class
    identity.  Where the file is not where scipy >= 1.15 puts it, the
    ordinary import loads the same module, only slower."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")  # finds the package, runs nothing
    roots = scipy.submodule_search_locations if scipy else None
    paths = (
        os.path.join(root, "optimize", "_highspy", "_core" + suffix)
        for root in roots or () for suffix in EXTENSION_SUFFIXES
    )
    path = next(filter(os.path.isfile, paths), None)
    if path is None:
        return importlib.import_module(name)
    loader = ExtensionFileLoader(name, path)
    spec = importlib.util.spec_from_file_location(name, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


_core = _load_highs()
HighsModelStatus = _core.HighsModelStatus
HighsStatus = _core.HighsStatus
MatrixFormat = _core.MatrixFormat
ObjSense = _core.ObjSense
_Highs = _core._Highs
kHighsInf = _core.kHighsInf


#: What :func:`highs` adds to an entry that has an integer column.  HiGHS runs
#: its feasibility-jump heuristic in front of every MIP presolve does not
#: finish, at a fixed cost that dwarfs the models sent here: 4.8 of the 6.0 ms
#: of 3mm's level-1 ``min u.NI`` (174 x 75, 12 x 12 after presolve, optimal at
#: node 1).  It only supplies an early incumbent; the bound proof is the same
#: without it.  Off, the polybench sweep's 563 lexmin MIPs take 1.7 s instead
#: of 3.7 (the 330 that reach the search 3.8 ms each instead of 9.9), and
#: swim, heat-3dp and lbm are no slower.  An option costs ~1 us of
#: ``setOptionValue``; a HiGHS that does not know one says so in the status
#: it returns, and the entry goes on without it.
MIP_OPTIONS = {"mip_heuristic_run_feasibility_jump": False}

#: HiGHS's model status -> the status :func:`highs` reports, mapped as scipy's
#: own MILP front end maps it; every other one (``kUnboundedOrInfeasible``,
#: ``kSolutionLimit``, ...) is 4, undecided
_STATUS = {
    HighsModelStatus.kOptimal: 0,
    HighsModelStatus.kTimeLimit: 1,
    HighsModelStatus.kIterationLimit: 1,
    HighsModelStatus.kModelError: 2,
    HighsModelStatus.kInfeasible: 2,
    HighsModelStatus.kUnbounded: 3,
}
#: the stops at which a MIP still has a point, if its objective is finite
_LIMITS = (
    HighsModelStatus.kTimeLimit,
    HighsModelStatus.kIterationLimit,
    HighsModelStatus.kSolutionLimit,
)

#: this thread's HiGHS (``_local.solver``), made on its first entry
_local = threading.local()


def _forget_solvers() -> None:
    """A forked child starts without its parent's solvers: their state is
    the parent's, and the child makes its own on its first entry."""
    global _local
    _local = threading.local()


os.register_at_fork(after_in_child=_forget_solvers)


def _solver() -> _Highs:
    """This thread's HiGHS, made on its first entry and reused after."""
    solver = getattr(_local, "solver", None)
    if solver is None:
        solver = _local.solver = _Highs()
    return solver


class CSC(NamedTuple):
    """A matrix as HiGHS takes it, column by column: the nonzeros ``data``,
    their row ``indices`` (ascending within a column) and each column's
    start in them, ``indptr``; ``rows`` is the row count."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    rows: int

    @classmethod
    def of(cls, a) -> CSC:
        """The nonzeros of the dense matrix ``a``: the entries, in the
        order, that ``scipy.sparse.csc_array(a)`` holds."""
        a = np.asarray(a)
        cols, rows = np.nonzero(a.T)
        indptr = np.zeros(a.shape[1] + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=a.shape[1]), out=indptr[1:])
        return cls(
            a.T[cols, rows].astype(np.float64), rows.astype(np.int32), indptr, a.shape[0]
        )

    def block_diagonal(self, k: int) -> CSC:
        """``k`` copies of this matrix down a diagonal: the entries, in the
        order, of ``scipy.sparse.kron(identity(k), a, format="csc")``."""
        nnz, copies = len(self.data), np.arange(k, dtype=np.int32)[:, None]
        return CSC(
            np.tile(self.data, k),
            (self.indices + self.rows * copies).ravel(),
            np.concatenate(([0], (self.indptr[1:] + nnz * copies).ravel())).astype(np.int32),
            self.rows * k,
        )


class HighsResult(NamedTuple):
    """What one entry answers: ``status`` 0 optimal, 1 work limit,
    2 infeasible, 3 unbounded, 4 undecided; ``x`` and ``fun`` when HiGHS has
    a point; ``mip_node_count`` too when the entry is a MIP."""

    status: int
    x: np.ndarray | None = None
    fun: float | None = None
    mip_node_count: int | None = None

    @property
    def success(self) -> bool:
        return self.status == 0


def highs(c, a, lo, hi, lb=-np.inf, ub=np.inf, integral=False, **options):
    """The one entry into HiGHS: minimise ``c . x`` over ``lo <= a @ x <= hi``
    and ``lb <= x <= ub``, the columns flagged ``integral`` integer.  Returns
    a :class:`HighsResult`, statuses and points as scipy's MILP front end
    reports them.

    ``a`` is a dense matrix or its :class:`CSC`.  ``options`` are HiGHS
    options; an entry with an integer column also gets :data:`MIP_OPTIONS`
    (feasibility jump off).  An LP gets nothing extra: the heuristic never
    runs on one."""
    c = np.asarray(c, dtype=np.float64)
    a = a if isinstance(a, CSC) else CSC.of(a)
    n, m = len(c), a.rows
    integral = np.broadcast_to(integral, n)
    mip = bool(integral.any())
    if mip:
        options.update(MIP_OPTIONS)

    solver = _solver()
    # the last entry's model and options go; what is left is a new _Highs
    solver.clearModel()
    solver.resetOptions()
    solver.setOptionValue("log_to_console", False)
    for name, value in options.items():
        solver.setOptionValue(name, value)
    # contiguous float64 / int32 arrays (a CSC's already are): the bindings
    # copy those in one go
    if solver.passModel(
        n, m, len(a.data), int(MatrixFormat.kColwise), int(ObjSense.kMinimize), 0.0, c,
        np.broadcast_to(lb, n).astype(np.float64),
        np.broadcast_to(ub, n).astype(np.float64),
        np.broadcast_to(lo, m).astype(np.float64),
        np.broadcast_to(hi, m).astype(np.float64),
        a.indptr, a.indices, a.data, integral.astype(np.int32),
    ) == HighsStatus.kError:
        return HighsResult(2)  # kModelError
    ran = solver.run()
    model_status = solver.getModelStatus()
    status = _STATUS.get(model_status, 4)
    if ran == HighsStatus.kError:
        return HighsResult(status)
    info = solver.getInfo()
    # a MIP stopped at a limit keeps its incumbent, if it has one
    if not (status == 0 or (mip and model_status in _LIMITS
                            and info.objective_function_value != kHighsInf)):
        return HighsResult(status)
    return HighsResult(
        status, np.array(solver.getSolution().col_value),
        info.objective_function_value, info.mip_node_count if mip else None,
    )


def block_minima(objectives, a, lo, hi):
    """``k`` LPs over one matrix as one entry: block ``i`` minimises
    ``objectives[i] . x`` over ``lo[i] <= a @ x <= hi``.  The ``k`` minima,
    or ``None`` unless every block has one (the block-diagonal whole is
    optimal only then)."""
    k, n = objectives.shape
    res = highs(objectives.ravel(), CSC.of(a).block_diagonal(k), lo.ravel(), np.tile(hi, k))
    return None if res.status else (res.x.reshape(k, n) * objectives).sum(axis=1)


def _holds(a, rhs, eq, lb, ub, x, tol) -> bool:
    slack = a @ x - rhs
    return bool(
        np.all(x >= lb - tol) and np.all(x <= ub + tol)
        and np.all(slack >= -tol) and np.all(slack[eq] <= tol)
    )


def solve_rows(
    c, a, rhs, eq, lb=-np.inf, ub=np.inf, integral=True, node_limit=20000, csc=None
):
    """Minimise ``c . x`` over the integer rows ``a @ x >= rhs`` (``==``
    where ``eq``): ``(status, x, entries)``.  ``csc``, the :class:`CSC` of
    the dense ``a`` when the caller keeps one, is what HiGHS is handed.

    An optimal ``x`` is rounded on its integral columns and verified
    against the rows.  A point that fails says nothing about feasibility —
    answering "infeasible" would make ``BasicSet.is_empty`` drop a
    dependence — so its status is ``None``, and the caller asks again or
    raises :class:`SolverError`.  The work limit reached at
    ``node_limit`` and again at 100 times it raises :class:`SolverError`.
    """
    # mip_rel_gap 0: the default 1e-4 would accept a folded lexmin
    # objective (magnitudes up to 1e5) several units from its optimum.
    res = highs(
        c, a if csc is None else csc, rhs, np.where(eq, rhs, np.inf), lb, ub, integral,
        mip_max_nodes=node_limit, mip_rel_gap=0,
    )
    if res.status == 2:
        return ILPStatus.INFEASIBLE, None, 1
    if res.status == 3:
        return ILPStatus.UNBOUNDED, None, 1
    if res.status == 1:
        # Iteration/node limit: must NOT be conflated with infeasibility.
        # One retry with a raised ceiling; a second failure is surfaced.
        if node_limit >= 10_000_000:
            raise SolverError(
                f"HiGHS hit its work limit ({node_limit} nodes) on a "
                f"{len(rhs)}-row, {len(c)}-column model"
            )
        status, x, entries = solve_rows(
            c, a, rhs, eq, lb, ub, integral, node_limit * 100, csc
        )
        return status, x, entries + 1
    if res.status == 4 or not res.success or res.x is None:
        # HiGHS reports "unbounded or infeasible" without deciding which
        # (presolve shortcut).  Disambiguate with a zero-objective
        # feasibility solve: feasible + undecided => unbounded.
        if not np.any(c):
            return ILPStatus.INFEASIBLE, None, 1
        status, _, entries = solve_rows(0 * c, a, rhs, eq, lb, ub, integral, node_limit, csc)
        if status == ILPStatus.OPTIMAL:
            status = ILPStatus.UNBOUNDED
        return status, None, entries + 1
    # integer-rounded values against integer rows: 1e-6 slack is conservative
    x = np.where(integral, np.round(res.x), res.x)
    return (ILPStatus.OPTIMAL if _holds(a, rhs, eq, lb, ub, x, 1e-6) else None), x, 1


class HighsSession:
    """``model`` assembled for HiGHS once."""

    def __init__(self, model: ILPModel):
        self.model = model
        self.names = model.var_names()
        self.index = {n: i for i, n in enumerate(self.names)}
        variables = model.variables.values()
        self.lb = np.array(
            [-np.inf if v.lower is None else v.lower for v in variables], dtype=float
        )
        self.ub = np.array(
            [np.inf if v.upper is None else v.upper for v in variables], dtype=float
        )
        self.integral = np.array([v.integer for v in variables], dtype=bool)
        self.pins: dict[str, Fraction] = {}

        # Rows are scaled to integers (a no-op on scheduler models), so a
        # mat-vec on an integer point is exact.  The matrix stays dense
        # (int64) for those mat-vecs and the component slices; HiGHS gets its
        # CSC, made once.
        rows, cols, data, rhs, eq = [], [], [], [], []
        index = self.index
        for r, con in enumerate(model.constraints):
            coeffs, const = con.coeffs, con.const
            if type(const) is int and all(type(c) is int for c in coeffs.values()):
                rows.extend([r] * len(coeffs))
                cols.extend([index[name] for name in coeffs])
                data.extend(coeffs.values())
                # expr + const >= 0  =>  expr >= -const;  equality pins both sides.
                rhs.append(-const)
            else:
                scale = lcm(
                    const.denominator, *(c.denominator for c in coeffs.values())
                )
                for name, coef in coeffs.items():
                    rows.append(r)
                    cols.append(index[name])
                    data.append(int(coef * scale))
                rhs.append(-int(const * scale))
            eq.append(con.equality)
        self.rhs = np.array(rhs, dtype=np.int64)
        self.eq = np.array(eq, dtype=bool)
        self.a = np.zeros((len(rhs), len(self.names)), dtype=np.int64)
        self.a[rows, cols] = data
        self.csc = CSC.of(self.a)
        #: no row of ``a @ x`` can wrap int64 while every ``|x_i|`` is below this
        widest = len(self.names) * max(map(abs, data), default=0)
        self._x_limit = 2.0**62 / max(1, widest)

    def pin(self, name: str, value: Fraction) -> None:
        """Fix ``name`` for every later solve (``lb = ub``, no new row)."""
        self.lb[self.index[name]] = self.ub[self.index[name]] = value
        self.pins[name] = value

    def _integer_point(self, assignment: Mapping[str, Fraction]) -> np.ndarray | None:
        """``assignment`` as an exact int64 vector; ``None`` when a value is
        not an integer or is large enough for a row of ``a @ x`` to wrap."""
        values = [assignment[n] for n in self.names]
        if any(v.denominator != 1 for v in values):
            return None
        x = [v.numerator for v in values]
        if max(map(abs, x), default=0) > self._x_limit:
            return None
        return np.array(x, dtype=np.int64)

    def satisfies(self, assignment: Mapping[str, Fraction]) -> bool:
        """Exact feasibility of an integer ``assignment`` (bounds, pins and
        rows) in one integer mat-vec; ``False`` for a point it cannot
        decide exactly (a non-integer value, or one large enough to wrap)."""
        x = self._integer_point(assignment)
        return x is not None and _holds(self.a, self.rhs, self.eq, self.lb, self.ub, x, 0)

    @cached_property
    def _incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """Which columns each row holds, both ways round: dense booleans,
        ``rows x columns`` and its transpose, for :meth:`_component`."""
        holds = self.a != 0
        return holds, np.ascontiguousarray(holds.T)

    def _component(self, c: np.ndarray, at: Mapping[str, Fraction]):
        """``c``'s component as a model of its own: ``(columns, a, rhs, eq)``.

        A column fixed by its bounds or a pin is a constant, so the free
        columns fall into groups that share no row; ``c``'s component is
        every free column its own columns reach through shared rows.  Its
        rows hold no other free column, so under the pins the feasible set is
        the component's times the rest's, and the minimum of ``c`` is the
        component's.  Every column outside it is substituted at ``at``,
        exactly, into the rows that touch it.  ``None`` when the component is
        every free column, or ``at`` is not an integer point within
        ``_x_limit``.
        """
        holds, held_by = self._incidence
        free = self.lb != self.ub
        reach = free & (c != 0)
        while True:
            rows = held_by[reach].any(axis=0)
            grown = reach | (free & holds[rows].any(axis=0))
            if np.array_equal(grown, reach):
                break
            reach = grown
        if not reach.any() or np.array_equal(reach, free):
            return None
        x = self._integer_point(at)
        if x is None:
            return None
        rhs = self.rhs - self.a @ np.where(reach, 0, x)
        # the reached columns, whole: every entry of one lies in a reached row
        return reach, self.a[rows][:, reach], rhs[rows], self.eq[rows]

    def solve(
        self,
        objective: Mapping[str, int | Fraction],
        node_limit: int = 20000,
        at: Mapping[str, Fraction] | None = None,
    ) -> ILPResult:
        """Minimize ``objective . x`` over the model under the current pins.

        ``at``, a feasible assignment under those pins, lets HiGHS see the
        objective's component only (:meth:`_component`): every column
        outside it keeps its value from ``at``.  Anything but a verified
        optimum there — a rounded point that fails the exact check included
        — is asked again of the whole model.  A whole-model point that fails
        the check raises :class:`SolverError`, carrying the model.
        """
        c = np.zeros(len(self.names))
        for name, coef in objective.items():
            c[self.index[name]] = float(coef)
        part = None if at is None else self._component(c, at)
        status, entries = None, 0
        if part is not None:
            cols, a, rhs, eq = part
            status, x, entries = solve_rows(
                c[cols], a, rhs, eq, self.lb[cols], self.ub[cols], self.integral[cols],
                node_limit,
            )
        if status != ILPStatus.OPTIMAL:
            cols = np.ones(len(self.names), dtype=bool)
            status, x, more = solve_rows(
                c, self.a, self.rhs, self.eq, self.lb, self.ub, self.integral, node_limit,
                self.csc,
            )
            entries += more
        if status is None:
            raise SolverError(
                f"HiGHS's rounded minimum of {dict(objective)} fails the exact check "
                f"on the whole {len(self.rhs)}-row, {len(self.names)}-column model "
                f"({len(self.pins)} pinned)",
                self.model,
            )
        stats = SolveStats(lp_solves=entries)
        if status != ILPStatus.OPTIMAL:
            return ILPResult(status, stats=stats)
        solved = zip(x, self.integral[cols])
        assignment = {
            name: _as_fraction(*next(solved)) if inside else at[name]
            for name, inside in zip(self.names, cols)
        }
        obj_val = sum(
            (Fraction(coef) * assignment[name] for name, coef in objective.items()),
            Fraction(0),
        )
        return ILPResult(ILPStatus.OPTIMAL, obj_val, assignment, stats)


def _as_fraction(value: float, integral: bool) -> Fraction:
    """One coordinate of a rounded HiGHS point as an exact value."""
    return Fraction(int(value)) if integral else Fraction(value).limit_denominator(10**9)
