"""Integer sets bounded by affine constraints (index sets, dependence polyhedra).

:class:`BasicSet` is a conjunction of constraints over a
:class:`~repro.polyhedra.affine.Space`; :class:`UnionSet` is a finite union of
basic sets sharing a space (produced by index-set splitting).  Emptiness,
lexmin and expression-minimum queries are answered through the exact ILP
stack (:mod:`repro.ilp`), so answers on integer points are exact.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.ilp import ILPModel, ILPStatus, SolverError, lexmin as ilp_lexmin
from repro.ilp.highs_backend import solve_rows
from repro.polyhedra import fastcheck
from repro.polyhedra.affine import AffExpr, Space
from repro.polyhedra.cache import MISS as MISS_, active_cache
from repro.polyhedra.constraints import Constraint
from repro.polyhedra.fourier_motzkin import (
    Row,
    cancel,
    eliminate_chain,
    normalize_rows,
    prune_redundant_rows,
    substitute_equalities,
)

__all__ = ["BasicSet", "UnionSet"]

#: cache marker for "min_of raised ValueError (unbounded direction)"
_UNBOUNDED = object()


class BasicSet:
    """The integer points satisfying a conjunction of affine constraints."""

    def __init__(self, space: Space, constraints: Iterable[Constraint] = ()):
        self.space = space
        self.constraints: list[Constraint] = []
        self._conset: set[Constraint] = set()
        self._memo: dict = {}
        self._memo_n = -1
        for con in constraints:
            self.add(con)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_bounds(
        cls,
        space: Space,
        bounds: Mapping[str, tuple],
    ) -> "BasicSet":
        """Box-style constructor: ``bounds[dim] = (lb_expr, ub_expr)``.

        Each bound may be an int, a dim/param name, or an :class:`AffExpr`;
        the set is ``lb <= dim <= ub`` for every entry.
        """
        bs = cls(space)
        for name, (lb, ub) in bounds.items():
            d = AffExpr.var(space, name)
            bs.add(Constraint(d - _as_expr(space, lb)))
            bs.add(Constraint(_as_expr(space, ub) - d))
        return bs

    def add(self, con: Constraint) -> None:
        if con.space != self.space:
            con = con.rebase(self.space)
        if con.is_trivial():
            return
        if con not in self._conset:
            self.constraints.append(con)
            self._conset.add(con)

    def copy(self) -> "BasicSet":
        out = BasicSet(self.space)
        out.constraints = list(self.constraints)
        out._conset = set(self._conset)
        return out

    def _memoised(self, name: str, compute):
        """``compute()`` once per constraint list: ``add`` only ever appends,
        so the constraint count is a valid staleness token."""
        if self._memo_n != len(self.constraints):
            self._memo, self._memo_n = {}, len(self.constraints)
        if name not in self._memo:
            self._memo[name] = compute()
        return self._memo[name]

    def content_key(self) -> tuple:
        """Hashable content identity: the space plus the constraint rows.

        Order-insensitive (constraints are a conjunction), so syntactically
        reordered but identical systems share memo entries.
        """
        return self._memoised("key", lambda: (self.space, frozenset(self._to_rows())))

    def reduced(self):
        """The exact integer reduced form (:func:`substitute_equalities`):
        pivots, and the reduced inequalities or ``None`` if visibly empty."""
        return self._memoised("reduced", lambda: substitute_equalities(
            sorted(self._to_rows(), key=lambda row: not row[1])
        ))

    def irredundant_rows(self) -> tuple[Row, ...]:
        """The normalised rows without the redundant ones
        (:func:`prune_redundant_rows`): the same rational set."""
        return self._memoised("irredundant", lambda: tuple(
            prune_redundant_rows(normalize_rows(self._to_rows()))
        ))

    def constant_value(self, expr: AffExpr) -> Optional[Fraction]:
        """The value ``expr`` takes on the whole set when the equalities
        alone fix it (a uniform dependence says ``target = source + d``, so
        a schedule difference across it is a number), else ``None``."""
        coeffs = expr.coeffs + (1,)  # the extra column collects the scaling
        for col, piv in self.reduced()[0]:
            coeffs = cancel(coeffs, piv + (0,), col)
        return None if any(coeffs[:-2]) else Fraction(coeffs[-2], coeffs[-1])

    def intersect(self, other: "BasicSet") -> "BasicSet":
        out = self.copy()
        for con in other.constraints:
            out.add(con)
        return out

    def rebase(self, target: Space, rename: Mapping[str, str] | None = None) -> "BasicSet":
        out = BasicSet(target)
        for con in self.constraints:
            out.add(con.rebase(target, rename))
        return out

    # -- queries ----------------------------------------------------------------

    def contains(self, values: Mapping[str, int]) -> bool:
        return all(con.is_satisfied(values) for con in self.constraints)

    def _to_rows(self) -> list[Row]:
        return [(con.coeffs, con.equality) for con in self.constraints]

    def _build_model(self) -> ILPModel:
        model = ILPModel()
        for name in self.space.names:
            model.add_variable(name, lower=None)
        for con in self.constraints:
            terms = con.expr.terms()
            model.add_constraint(terms, con.expr.const_term, con.equality)
        return model

    def _arrays(self):
        """The rows as integer arrays ``a @ x >= rhs`` (``==`` where ``eq``)."""
        rows = np.array([con.coeffs for con in self.constraints], dtype=np.int64)
        rows = rows.reshape(-1, self.space.ncols)
        eq = np.array([con.equality for con in self.constraints], dtype=bool)
        return rows[:, :-1], -rows[:, -1], eq

    def _solve(self, coeffs: Sequence[int] = (), arrays=None):
        """Integer minimum of ``coeffs . x`` over the set: ``(status, value)``.

        HiGHS decides these tiny systems from the integer rows alone.  A
        rounded point that fails verification raises :class:`SolverError`,
        carrying the set as a model: it is never read as "empty".
        """
        c = np.zeros(len(self.space.names))
        c[: len(coeffs)] = coeffs
        status, x, _ = solve_rows(c, *(arrays or self._arrays()))
        if status is None:
            raise SolverError(
                f"HiGHS's rounded minimum fails the exact check on {self}",
                self._build_model(),
            )
        if status != ILPStatus.OPTIMAL:
            return status, None
        return status, Fraction(sum(k * int(v) for k, v in zip(coeffs, x)))

    def is_empty(self) -> bool:
        """Exact integer emptiness: fast reject, memo, reduced reject, LP,
        integer solve (:mod:`repro.polyhedra.fastcheck`).

        With the PolyCache disabled
        (:func:`repro.polyhedra.cache.cache_disabled`) only the LP pre-filter
        runs before the integer solve: nothing is skipped or reused.
        """
        if any(con.is_contradiction() for con in self.constraints):
            return True
        cache = active_cache()
        if cache is None:
            return (
                not fastcheck.lp_feasible(self)
                or self._solve()[0] == ILPStatus.INFEASIBLE
            )
        if fastcheck.fast_reject(self):
            cache.stats.fast_rejects += 1
            return True
        key = self.content_key()
        hit = cache.get_empty(key)
        if hit is not MISS_:
            return hit
        if fastcheck.reduced_reject(self):
            cache.stats.fast_rejects += 1
            empty = True
        else:
            arrays = self._arrays()
            res = fastcheck._lp_solve(*arrays)
            if res.status == 2:
                empty = True
            elif fastcheck._integer_witness(self, res.x):
                empty = False
            else:  # the LP point proves nothing: the integer solve decides
                empty = self._solve(arrays=arrays)[0] == ILPStatus.INFEASIBLE
        cache.put_empty(key, empty)
        return empty

    def min_of(self, expr: AffExpr) -> Optional[Fraction]:
        """Integer minimum of ``expr`` over the set (memoized).

        Returns ``None`` when the set is empty; raises on an unbounded
        direction (callers ask about bounded quantities only).  When the
        equalities fix ``expr`` (:meth:`constant_value`) and the emptiness
        memo records the set non-empty, that constant is the answer; an
        unknown or empty set still goes to the solver.
        """
        cache = active_cache()
        key = None
        if cache is not None:
            key = (self.content_key(), expr.coeffs)
            hit = cache.get_min(key)
            if hit is not MISS_:
                if hit is _UNBOUNDED:
                    raise ValueError(f"min of {expr} is unbounded over {self}")
                return hit
            value = self.constant_value(expr)
            if value is not None and cache.get_empty(key[0]) is False:
                cache.stats.min_by_rule += 1
                cache.put_min(key, value)
                return value
        status, value = self._solve(expr.coeffs[:-1])
        if status == ILPStatus.UNBOUNDED:
            if cache is not None:
                cache.put_min(key, _UNBOUNDED)
            raise ValueError(f"min of {expr} is unbounded over {self}")
        if status == ILPStatus.OPTIMAL:
            value += expr.const_term
        if cache is not None:
            cache.put_min(key, value)
        return value

    def max_of(self, expr: AffExpr) -> Optional[Fraction]:
        m = self.min_of(-expr)
        return None if m is None else -m

    def lexmin_point(self) -> Optional[dict[str, int]]:
        """Lexicographically smallest integer point (dims order), memoized."""
        cache = active_cache()
        key = None
        if cache is not None:
            key = self.content_key()
            hit = cache.get_lexmin(key)
            if hit is not MISS_:
                return dict(hit) if hit is not None else None
        model = self._build_model()
        model.set_objective_order(list(self.space.dims))
        res = ilp_lexmin(model)
        point = None
        if res.is_optimal:
            point = {d: int(res.assignment[d]) for d in self.space.dims}
        if cache is not None:
            cache.put_lexmin(key, dict(point) if point is not None else None)
        return point

    def sample_point(self) -> Optional[dict[str, int]]:
        point = self.lexmin_point()
        return point

    def project_out(self, names: Sequence[str]) -> "BasicSet":
        """Existentially project out the named dims: the last set of
        :meth:`project_chain` (the set itself when there is nothing to do)."""
        return self.project_chain(names)[-1] if names else self.copy()

    def project_chain(self, names: Sequence[str]) -> list["BasicSet"]:
        """The set with ``names[:1]``, ``names[:2]``, ... projected out: one
        history-tracked elimination in the order given (``eliminate_chain``),
        every set between the integer projection and the rational shadow.
        Memoized on ``(content, names)`` — identical scan systems recur
        across tiles/statements — and a hit returns copies."""
        cache = active_cache()
        key = None
        if cache is not None:
            key = (self.content_key(), tuple(names))
            hit = cache.get_project(key)
            if hit is not MISS_:
                return [bset.copy() for bset in hit]
        cols = [self.space.column_of(n) for n in names]
        chain: list[BasicSet] = []
        for done, rows in enumerate(eliminate_chain(self._to_rows(), cols), 1):
            space = self.space.drop_dims(names[:done])
            keep_cols = [self.space.column_of(n) for n in space.names] + [-1]
            out = BasicSet(space)
            for coeffs, equality in rows:
                assert not any(coeffs[c] for c in cols[:done])
                out.add(Constraint(AffExpr(space, [coeffs[i] for i in keep_cols]), equality))
            chain.append(out)
        if cache is not None:
            cache.put_project(key, tuple(bset.copy() for bset in chain))
        return chain

    def bounds_for(self, name: str) -> tuple[list[tuple[AffExpr, int]], list[tuple[AffExpr, int]]]:
        """Per-constraint bounds on ``name`` in terms of the other columns.

        Returns ``(lowers, uppers)``: each entry ``(expr, k)`` means
        ``name >= ceil(expr / k)`` (lowers) or ``name <= floor(expr / k)``
        (uppers), with ``expr`` not involving ``name`` and ``k >= 1``.
        Equalities contribute to both lists.
        """
        col = self.space.column_of(name)
        lowers: list[tuple[AffExpr, int]] = []
        uppers: list[tuple[AffExpr, int]] = []
        for con in self.constraints:
            a = con.coeffs[col]
            if a == 0:
                continue
            rest = list(con.coeffs)
            rest[col] = 0
            rest_expr = AffExpr(self.space, rest)
            if con.equality:
                # a*name + rest == 0  ->  name bounded both ways by -rest/a
                if a > 0:
                    lowers.append((-rest_expr, a))
                    uppers.append((-rest_expr, a))
                else:
                    lowers.append((rest_expr, -a))
                    uppers.append((rest_expr, -a))
            elif a > 0:
                # a*name + rest >= 0  ->  name >= ceil(-rest / a)
                lowers.append((-rest_expr, a))
            else:
                # a*name + rest >= 0, a < 0  ->  name <= floor(rest / -a)
                uppers.append((rest_expr, -a))
        return lowers, uppers

    def enumerate_points(
        self, param_values: Mapping[str, int], limit: int = 1_000_000
    ) -> list[tuple[int, ...]]:
        """All integer points (dims order) for fixed parameter values.

        Intended for validation at small sizes; raises if more than ``limit``
        candidate points would be scanned.
        """
        fixed = dict(param_values)
        box: list[range] = []
        work = self.copy()
        for p in self.space.params:
            if p not in fixed:
                raise KeyError(f"missing value for parameter {p!r}")
        # Constrain params to their fixed values, then compute per-dim ranges.
        for p, v in fixed.items():
            work.add(
                Constraint(
                    AffExpr.var(self.space, p) - AffExpr.const(self.space, v),
                    equality=True,
                )
            )
        for d in self.space.dims:
            lo = work.min_of(AffExpr.var(self.space, d))
            if lo is None:
                return []
            hi = work.max_of(AffExpr.var(self.space, d))
            box.append(range(int(lo), int(hi) + 1))
        total = 1
        for r in box:
            total *= max(len(r), 1)
            if total > limit:
                raise ValueError("enumeration box too large")
        points = []
        for combo in itertools.product(*box):
            values = dict(zip(self.space.dims, combo))
            values.update(fixed)
            if self.contains(values):
                points.append(combo)
        return points

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BasicSet)
            and self.space == other.space
            and set(self.constraints) == set(other.constraints)
        )

    def __str__(self) -> str:
        cons = " and ".join(str(c) for c in self.constraints) or "true"
        return f"{{ {self.space} : {cons} }}"

    __repr__ = __str__


class UnionSet:
    """A finite union of basic sets over one space (e.g. after ISS)."""

    def __init__(self, parts: Sequence[BasicSet]):
        if not parts:
            raise ValueError("UnionSet needs at least one part")
        space = parts[0].space
        for p in parts:
            if p.space != space:
                raise ValueError("UnionSet parts must share a space")
        self.space = space
        self.parts = list(parts)

    def is_empty(self) -> bool:
        return all(p.is_empty() for p in self.parts)

    def contains(self, values: Mapping[str, int]) -> bool:
        return any(p.contains(values) for p in self.parts)

    def intersect_basic(self, bs: BasicSet) -> "UnionSet":
        return UnionSet([p.intersect(bs) for p in self.parts])

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __str__(self) -> str:
        return " u ".join(str(p) for p in self.parts)


def _as_expr(space: Space, value) -> AffExpr:
    if isinstance(value, AffExpr):
        return value
    if isinstance(value, int):
        return AffExpr.const(space, value)
    if isinstance(value, str):
        return AffExpr.var(space, value)
    raise TypeError(f"cannot interpret {value!r} as an affine expression")
