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
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.codegen.looptree import Instance, Loop, TreeRenderer, build_loop_tree
from repro.core.reductions import REDUCTION_IDENTITY
from repro.core.tiling import TiledSchedule

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

    def run(
        self,
        arrays: dict,
        params: dict,
        trace: Optional[list] = None,
        threads: Optional[int] = None,
        stats=None,
    ) -> None:
        """Execute in place, adding the wall time to ``stats.exec_seconds``;
        ``threads`` is a native setting this serial kernel ignores."""
        extra = ([] if trace is None else trace,) if self.traced else ()
        t0 = time.perf_counter()
        self.function(arrays, params, *extra)
        if stats is not None:
            stats.exec_seconds += time.perf_counter() - t0


class _PyRenderer(TreeRenderer):
    def open_loop(self, node: Loop, ind: int, header: str) -> None:
        tag = ""
        if node.fold:
            # Privatized partial-sum form: seed the accumulator with the
            # operator identity, fold the update expression inside the
            # loop, and combine into the written cell once afterwards.
            # Deliberately reassociates the accumulation — that is the
            # semantics parallel execution would have, which keeps this
            # backend an honest reference for tolerance verification.
            acc, split = node.fold
            self.line(ind, f"{acc} = {REDUCTION_IDENTITY[split.op]}")
            tag = "  # parallel reduction"
        elif node.parallel:
            tag = "  # parallel (reduction)" if node.reduction else "  # parallel"
        self.line(ind, header + tag)

    def close_loop(self, node: Loop, ind: int) -> None:
        if node.fold:
            acc, split = node.fold
            target = ast.unparse(split.target)
            self.line(ind, f"{target} = {target} {split.op} {acc}")

    def statement(self, inst: Instance, ind: int) -> None:
        if inst.acc:
            update = ast.unparse(inst.split.update)
            self.line(ind, f"{inst.acc} = {inst.acc} {inst.split.op} ({update})")
        else:
            # an atomic discharge is a native-threads concern: serial
            # execution of the original body is already correct
            self.line(ind, inst.stmt.body)
        if inst.trace:
            vec = "".join(f"{it}, " for it in inst.stmt.space.dims)
            self.line(ind, f"__trace.append(('{inst.stmt.name}', ({vec})))")


def generate_python(tsched: TiledSchedule, trace: bool = False) -> GeneratedCode:
    """Generate an executable Python kernel scanning ``tsched``."""
    program = tsched.program
    out = _PyRenderer()
    sig = "arrays, params, __trace" if trace else "arrays, params"
    out.line(0, f"def kernel({sig}):")
    for p in program.params:
        out.line(1, f"{p} = params['{p}']")
    for a in sorted(program.arrays()):
        out.line(1, f"{a} = arrays['{a}']")
    if not program.statements:
        out.line(1, "pass")
    out.render(build_loop_tree(tsched, trace), 1)
    return GeneratedCode("\n".join(out.lines) + "\n", tsched, traced=trace)
