"""Emit executable Python from a (tiled) schedule.

The generated function has signature ``kernel(arrays, params)`` where
``arrays`` maps array names to numpy ndarrays (0-d arrays for scalars) and
``params`` maps parameter names to ints.  With ``trace=True`` the signature
gains a ``__trace`` list that records ``(statement, iteration_vector)`` in
execution order — the correctness harness uses it to verify that the
transformed code executes every domain point exactly once and in a
dependence-respecting order.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.codegen.emit_common import merge_bounds, render_lower, render_upper
from repro.codegen.scan import ScanSystem, build_scan_systems, z_name
from repro.core.reductions import REDUCTION_IDENTITY, reduction_split
from repro.core.tiling import TiledSchedule
from repro.frontend.ir import Statement

__all__ = ["GeneratedCode", "generate_python"]

_EXEC_GLOBALS = {
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "fabs": abs,
    "abs": abs,
    "pow": pow,
    "floor": math.floor,
    "ceil": math.ceil,
    "fmin": min,
    "fmax": max,
    "min": min,
    "max": max,
    "range": range,
}


@dataclass
class GeneratedCode:
    """Compiled kernel plus its source and schedule metadata.

    Satisfies the :class:`repro.exec.CompiledKernel` protocol — this is the
    ``backend == "python"`` implementation, with the native backend's
    ``CKernel`` as its peer.  :func:`repro.codegen.make_generated_code` is
    the documented way to rebuild one from stored source.
    """

    python_source: str
    tsched: TiledSchedule
    traced: bool = False
    _func: Optional[Callable] = field(default=None, repr=False, compare=False)

    backend = "python"

    @property
    def source(self) -> str:
        """The emitted kernel text (CompiledKernel protocol surface)."""
        return self.python_source

    def __getstate__(self) -> dict:
        """Pickle support: the compiled handle is a cache, not state.

        ``exec``-produced functions cannot cross process boundaries; the
        :attr:`function` property rebuilds one lazily from the source on the
        other side, so results survive pickling unchanged."""
        state = self.__dict__.copy()
        state["_func"] = None
        return state

    @property
    def function(self) -> Callable:
        if self._func is None:
            ns: dict = {}
            exec(compile(self.python_source, "<repro-codegen>", "exec"),
                 dict(_EXEC_GLOBALS), ns)
            self._func = ns["kernel"]
        return self._func

    def run(self, arrays: dict, params: dict, trace: Optional[list] = None):
        if self.traced:
            return self.function(arrays, params, [] if trace is None else trace)
        return self.function(arrays, params)


class _Emitter:
    def __init__(self, tsched: TiledSchedule, trace: bool):
        self.tsched = tsched
        self.program = tsched.program
        self.trace = trace
        self.systems = {
            sys.stmt.name: sys for sys in build_scan_systems(tsched)
        }
        self.lines: list[str] = []
        #: statements currently rewritten into a privatized partial sum:
        #: stmt name -> (accumulator variable, combine op)
        self._privatized: dict[str, tuple[str, str]] = {}

    def line(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def emit(self) -> str:
        sig = "def kernel(arrays, params, __trace):" if self.trace else "def kernel(arrays, params):"
        self.line(0, sig)
        for p in self.program.params:
            self.line(1, f"{p} = params['{p}']")
        for a in sorted(self.program.arrays()):
            self.line(1, f"{a} = arrays['{a}']")
        if not self.program.statements:
            self.line(1, "pass")
            return "\n".join(self.lines) + "\n"
        self.emit_level(0, list(self.program.statements), 1)
        return "\n".join(self.lines) + "\n"

    # -- recursion ---------------------------------------------------------------

    def emit_level(self, level: int, stmts: list[Statement], indent: int) -> None:
        if level == self.tsched.depth:
            for s in self.program.statements:
                if s in stmts:
                    self.emit_statement(s, indent)
            return
        row = self.tsched.rows[level]
        if row.kind == "scalar":
            groups: dict[int, list[Statement]] = {}
            for s in stmts:
                groups.setdefault(row.expr_for(s).const_term, []).append(s)
            for value in sorted(groups):
                self.line(indent, f"{z_name(level)} = {value}")
                self.emit_level(level + 1, groups[value], indent)
            return

        lowers: list[str] = []
        uppers: list[str] = []
        for s in stmts:
            lo, up = self.systems[s.name].z_bounds(level)
            if not lo or not up:
                raise RuntimeError(
                    f"unbounded scan dimension z{level} for {s.name}"
                )
            lowers.append(merge_bounds([render_lower(b) for b in lo], "max"))
            uppers.append(merge_bounds([render_upper(b) for b in up], "min"))
        # The loop covers the union: min of the lower bounds, max of uppers.
        lb = merge_bounds(lowers, "min")
        ub = merge_bounds(uppers, "max")
        plan = self._reduction_plan(row, stmts)
        if plan is not None:
            # Privatized partial-sum form: seed the accumulator with the
            # operator identity, fold the update expression inside the
            # loop, and combine into the written cell once afterwards.
            # Deliberately reassociates the accumulation — that is the
            # semantics parallel execution would have, which keeps this
            # backend an honest reference for tolerance verification.
            stmt, split = plan
            acc = f"__red{level}"
            self.line(indent, f"{acc} = {REDUCTION_IDENTITY[split.op]}")
            self.line(
                indent,
                f"for {z_name(level)} in range({lb}, ({ub}) + 1):"
                f"  # parallel reduction",
            )
            self._privatized[stmt.name] = (acc, split.op)
            try:
                self.emit_level(level + 1, stmts, indent + 1)
            finally:
                del self._privatized[stmt.name]
            target = ast.unparse(split.target)
            self.line(indent, f"{target} = {target} {split.op} {acc}")
            return
        if row.reduction:
            tag = "  # parallel (reduction)" if row.parallel else ""
        else:
            tag = "  # parallel" if row.parallel else ""
        self.line(indent, f"for {z_name(level)} in range({lb}, ({ub}) + 1):{tag}")
        self.emit_level(level + 1, stmts, indent + 1)

    def _reduction_plan(self, row, stmts: list[Statement]):
        """Privatization decision for a reduction-tagged loop row.

        Applies only in the clean case: the subtree scans exactly one
        statement, that statement is tagged on this row, it is not already
        privatized by an enclosing reduction loop, and its accumulator is a
        scalar (rank-0 write) — so the combine after the loop targets a
        location provably invariant across the loop.  Array-cell
        accumulators keep their original body (serial Python execution is
        correct as-is); the loop is still annotated as a reduction.
        """
        if not row.reduction or row.parallel is not True or len(stmts) != 1:
            return None
        stmt = stmts[0]
        if stmt.name in self._privatized:
            return None
        if not any(tag["stmt"] == stmt.name for tag in row.reduction):
            return None
        if len(stmt.writes) != 1 or stmt.writes[0].map.exprs:
            return None  # array-cell accumulator: no safe hoist point
        split = reduction_split(stmt.body)
        if split is None:
            return None
        return stmt, split

    def emit_statement(self, stmt: Statement, indent: int) -> None:
        sys = self.systems[stmt.name]
        cur = indent
        # Statement-specific scan-dim guards (loop bounds cover the union of
        # all statements; a statement whose schedule pins a level the others
        # iterate over needs its own check).
        if len(self.program.statements) > 1:
            conds: list[str] = []
            from repro.codegen.emit_common import render_expr

            for con in sys.z_guards():
                op = "==" if con.equality else ">="
                conds.append(f"{render_expr(con.expr)} {op} 0")
            conds = list(dict.fromkeys(conds))
            if conds:
                self.line(cur, f"if {' and '.join(conds)}:")
                cur += 1
        for k, it in enumerate(stmt.space.dims):
            lo, up = sys.iter_bounds(k)
            if not lo or not up:
                raise RuntimeError(
                    f"unbounded iterator {it} recovering {stmt.name}"
                )
            lb = merge_bounds([render_lower(b) for b in lo], "max")
            ub = merge_bounds([render_upper(b) for b in up], "min")
            self.line(cur, f"for {it} in range({lb}, ({ub}) + 1):")
            cur += 1
        if stmt.space.dims:
            body_indent = cur
        else:
            body_indent = cur
        privatized = self._privatized.get(stmt.name)
        if privatized is not None:
            acc, op = privatized
            split = reduction_split(stmt.body)
            self.line(
                body_indent, f"{acc} = {acc} {op} ({ast.unparse(split.update)})"
            )
        else:
            self.line(body_indent, stmt.body)
        if self.trace:
            vec = ", ".join(stmt.space.dims)
            vec = f"({vec},)" if stmt.space.dims else "()"
            self.line(body_indent, f"__trace.append(('{stmt.name}', {vec}))")


def generate_python(tsched: TiledSchedule, trace: bool = False) -> GeneratedCode:
    """Generate an executable Python kernel scanning ``tsched``."""
    emitter = _Emitter(tsched, trace)
    source = emitter.emit()
    return GeneratedCode(source, tsched, traced=trace)
