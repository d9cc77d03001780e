"""Loop-nest program builder with context-manager loops.

The builder mirrors writing the C code by hand and records exact original
schedules in 2d+1 interleaving form, so dependence analysis can reconstruct
the sequential execution order precisely::

    b = ProgramBuilder("gemm", params=("NI", "NJ", "NK"))
    with b.loop("i", 0, "NI-1"):
        with b.loop("j", 0, "NJ-1"):
            b.stmt("C[i][j] = C[i][j] * beta")
            with b.loop("k", 0, "NK-1"):
                b.stmt("C[i][j] = C[i][j] + alpha * A[i][k] * B[k][j]")
    prog = b.build()

Accesses and the executable Python body are derived from the C-like body,
periodic ``(i+1) % N`` reads included (:mod:`repro.frontend.body`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional, Sequence

from repro.frontend.body import extract_accesses, to_python
from repro.frontend.exprs import parse_affine
from repro.frontend.ir import Program, Statement
from repro.polyhedra import AffExpr, BasicSet, Constraint, Space

__all__ = ["ProgramBuilder", "parse_condition"]


def parse_condition(space: Space, text: str) -> list[Constraint]:
    """Parse a conjunction of affine relations: ``"i >= 1 && j <= i - 1"``.

    Supported operators: ``<=``, ``<``, ``>=``, ``>``, ``==``.
    """
    out: list[Constraint] = []
    for clause in text.replace("&&", " and ").split(" and "):
        clause = clause.strip()
        if not clause:
            continue
        for op in ("<=", ">=", "==", "<", ">"):
            if op in clause:
                lhs_text, rhs_text = clause.split(op, 1)
                lhs = parse_affine(space, lhs_text)
                rhs = parse_affine(space, rhs_text)
                if op == "<=":
                    out.append(Constraint(rhs - lhs))
                elif op == ">=":
                    out.append(Constraint(lhs - rhs))
                elif op == "<":
                    out.append(Constraint(rhs - lhs - 1))
                elif op == ">":
                    out.append(Constraint(lhs - rhs - 1))
                else:
                    out.append(Constraint(lhs - rhs, equality=True))
                break
        else:
            raise ValueError(f"no relational operator in condition {clause!r}")
    return out


class _Frame:
    """One open loop (or guard) during building."""

    def __init__(self, iter_name: Optional[str], lb: str | int | None, ub, cond: str | None):
        self.iter_name = iter_name
        self.lb = lb
        self.ub = ub
        self.cond = cond
        self.children = 0
        self.position = 0


class ProgramBuilder:
    def __init__(
        self,
        name: str,
        params: Sequence[str] = (),
        param_min=2,
    ):
        self.program = Program(name, params, param_min)
        self._stack: list[_Frame] = [_Frame(None, None, None, None)]  # root
        self._counter = 0

    # -- structure ---------------------------------------------------------

    @contextmanager
    def loop(self, iter_name: str, lb, ub):
        """Open ``for (iter = lb; iter <= ub; iter++)``; bounds are affine text."""
        parent = self._stack[-1]
        frame = _Frame(iter_name, lb, ub, None)
        frame.position = parent.children
        parent.children += 1
        self._stack.append(frame)
        try:
            yield self
        finally:
            self._stack.pop()

    @contextmanager
    def guard(self, cond: str):
        """Open ``if (cond)`` — restricts the domains of enclosed statements.

        Guards are transparent to the 2d+1 schedule (they do not introduce a
        schedule dimension), matching how pet folds conditions into domains.
        """
        frame = _Frame(None, None, None, cond)
        # Share the parent's child counter so sibling ordering continues
        # seamlessly through the guard (guards are schedule-transparent).
        frame.children = self._stack[-1].children
        self._stack.append(frame)
        try:
            yield self
        finally:
            self._stack.pop()
            self._stack[-1].children = frame.children

    # -- statements ---------------------------------------------------------

    def stmt(self, body: str, name: Optional[str] = None) -> Statement:
        """Add a statement under the currently open loops; its accesses and
        executable Python body are derived from the C-like ``body``."""
        iters = [f.iter_name for f in self._stack if f.iter_name]
        space = self.program.space_for(iters)

        domain = BasicSet(space)
        for frame in self._stack:
            if frame.iter_name:
                it = AffExpr.var(space, frame.iter_name)
                domain.add(Constraint(it - parse_affine(space, frame.lb)))
                domain.add(Constraint(parse_affine(space, frame.ub) - it))
            if frame.cond:
                for con in parse_condition(space, frame.cond):
                    domain.add(con)

        writes, reads = extract_accesses(body, domain)
        body_py = to_python(body, space, sorted({a.array for a in writes + reads}))
        if name is None:
            name = f"S{self._counter}"
        self._counter += 1

        # 2d+1 schedule: (beta0, i1, beta1, ..., ik, betak)
        sched: list = []
        loop_frames = [f for f in self._stack if f.iter_name]
        for frame in loop_frames:
            sched.append(frame.position)
            sched.append(AffExpr.var(space, frame.iter_name))
        # position among the innermost enclosing ordering scope
        scope = self._stack[-1]
        sched.append(scope.children)
        scope.children += 1

        st = Statement(
            name=name,
            domain=domain,
            reads=reads,
            writes=writes,
            body=body_py,
            sched=sched,
        )
        return self.program.add_statement(st)

    def build(self) -> Program:
        if len(self._stack) != 1:
            raise RuntimeError("unclosed loops/guards at build() time")
        return self.program
