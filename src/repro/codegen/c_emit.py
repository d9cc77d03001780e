"""Emit C source (with OpenMP pragmas) from a tiled schedule.

:func:`generate_c_kernel` renders the loop tree
(:mod:`repro.codegen.looptree`) as a *complete, compilable translation
unit*: a ``repro_kernel(double **arrays, const int64_t *shapes, const
int64_t *params)`` entry point that the native execution backend
(:mod:`repro.exec`) compiles with the system compiler and calls through
ctypes, and that ``repro opt --emit c`` prints.  Arrays are marshalled as
flat ``double`` buffers in sorted-name order (the same order the Python
emitter binds them) and rebound to C99 variable-length-array pointers.
Statement bodies are translated from their *Python* form (the semantics
the Python emitter actually executes, periodic ``% N`` wraparound
included) with Python's floor-mod/floor-div mapped onto helpers, and
``a % m`` reduced to a compare-and-add wherever the statement's domain
proves the range (:func:`mod_form`).

The bound helpers are ``static inline`` functions, so every argument is
evaluated once (as macros, nested ``max(max(..))`` chains expanded
exponentially: heat-2dp preprocessed to 56 MB).  ``min``/``max``/``mod``
carry a ``repro_`` prefix and ``ceild``/``floord`` are ``#undef``-ed first:
the bare names collide with ``<sys/param.h>``/libc definitions under real
compilers, which mattered the moment this emitter's output started being
compiled rather than just read.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from repro.codegen.looptree import Instance, Loop, TreeRenderer, build_loop_tree
from repro.core.reductions import REDUCTION_IDENTITY
from repro.core.tiling import TiledSchedule
from repro.frontend.exprs import AffineSyntaxError, parse_affine
from repro.frontend.ir import Program, Statement
from repro.polyhedra import AffExpr, BasicSet

__all__ = [
    "CKernelSource",
    "KERNEL_ENTRY",
    "CEmitError",
    "generate_c_kernel",
]

#: the exported entry point of every compiled kernel
KERNEL_ENTRY = "repro_kernel"

_HEADER = """\
#include <stdint.h>
#undef ceild
#undef floord
static inline int64_t ceild(int64_t n, int64_t d) { return n > 0 ? 1 + (n - 1) / d : -((-n) / d); }
static inline int64_t floord(int64_t n, int64_t d) { return n > 0 ? n / d : -((-n + d - 1) / d); }
static inline int64_t repro_max(int64_t a, int64_t b) { return a > b ? a : b; }
static inline int64_t repro_min(int64_t a, int64_t b) { return a < b ? a : b; }
static inline int64_t repro_mod(int64_t a, int64_t b) { int64_t r = a % b; return r != 0 && (r < 0) != (b < 0) ? r + b : r; }
static inline double repro_fmax(double a, double b) { return a > b ? a : b; }
static inline double repro_fmin(double a, double b) { return a < b ? a : b; }
"""

_KERNEL_EPILOGUE = """\

#ifdef _OPENMP
#include <omp.h>
void repro_set_threads(int n) { if (n > 0) omp_set_num_threads(n); }
int repro_omp_enabled(void) { return 1; }
#else
void repro_set_threads(int n) { (void)n; }
int repro_omp_enabled(void) { return 0; }
#endif
"""


class CEmitError(RuntimeError):
    """The program cannot be rendered as a compilable C kernel."""


def array_ranks(program: Program) -> dict[str, int]:
    """Per-array rank: the maximum access arity, matching
    :func:`repro.runtime.arrays.infer_shapes`'s padding rule."""
    ranks: dict[str, int] = {}
    for stmt in program.statements:
        for acc in stmt.reads + stmt.writes:
            ranks[acc.array] = max(ranks.get(acc.array, 0), acc.arity)
    return ranks


@dataclass(frozen=True)
class CKernelSource:
    """A compilable kernel translation unit plus its marshalling contract.

    The entry point's ABI::

        void repro_kernel(double **arrays,
                          const int64_t *shapes,
                          const int64_t *params);

    ``arrays`` holds one base pointer per array in :attr:`array_order`
    (sorted name order — exactly how the Python emitter binds ``arrays``);
    ``shapes`` is the per-array extents flattened in the same order (each
    array contributing :attr:`array_ranks```[name]`` entries); ``params``
    follows :attr:`param_order`.  All three use 64-bit integers.
    """

    source: str
    name: str
    entry: str
    array_order: tuple[str, ...]
    array_ranks: dict[str, int]
    param_order: tuple[str, ...]


#: body-level calls → the libm/helper names the kernel compiles against.
#: ``abs`` maps to ``fabs`` (data are always doubles; C's integer ``abs``
#: would truncate); ``min``/``max``/``fmin``/``fmax`` go through the
#: ``double`` helpers, whose compare-and-select matches Python's builtins
#: bit-for-bit (the ``int64_t`` bound helpers would truncate the data).
_C_FUNCS = {
    "min": "repro_fmin", "max": "repro_fmax",
    "fmin": "repro_fmin", "fmax": "repro_fmax",
    "abs": "fabs", "fabs": "fabs",
    "sqrt": "sqrt", "exp": "exp", "log": "log",
    "sin": "sin", "cos": "cos", "tan": "tan",
    "pow": "pow", "floor": "floor", "ceil": "ceil",
}

_C_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*"}
_C_CMPOPS = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<",
    ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
}


def mod_form(domain: BasicSet, a: AffExpr, m: AffExpr) -> tuple[str, dict]:
    """The cheapest C form of Python's ``a % m`` that ``domain`` proves.

    Returns ``(form, proof)``: ``"plain"`` (``a``) when ``0 <= a < m``,
    ``"high"`` (``a >= m ? a - m : a``) when ``0 <= a < 2m``, ``"low"``
    (``a < 0 ? a + m : a``) when ``-m <= a < m`` — each only with
    ``m >= 1`` — else ``"mod"`` (``repro_mod``, one division).  ``proof``
    maps every quantity whose non-negativity justified the form to its
    ``min_of`` over the domain.
    """
    proof: dict[str, object] = {}

    def nonneg(label: str, expr: AffExpr) -> bool:
        try:
            low = domain.min_of(expr)
        except ValueError:  # unbounded below
            return False
        if low is None or low < 0:
            return False
        proof[label] = low
        return True

    if nonneg("m - 1", m - 1):
        lo, hi = nonneg("a", a), nonneg("m - 1 - a", m - 1 - a)
        if lo and hi:
            return "plain", proof
        if lo and nonneg("2m - 1 - a", m * 2 - 1 - a):
            return "high", proof
        if hi and nonneg("a + m", a + m):
            return "low", proof
    return "mod", {}


_MOD_C = {
    "plain": "{a}",
    "high": "({a} >= {m} ? {a} - {m} : {a})",
    "low": "({a} < 0 ? {a} + {m} : {a})",
    "mod": "repro_mod({a}, {m})",
}


def _expr_c(
    node: ast.expr, ranks: dict[str, int], domain: Optional[BasicSet] = None
) -> str:
    """One Python body expression as C, preserving the evaluation tree.

    Every binary operation is parenthesized, so C re-association can never
    change the floating-point rounding sequence the Python kernel performs.
    The semantic gaps between the languages are papered over explicitly:
    Python's floor-mod becomes ``repro_mod`` (C's ``%`` truncates toward
    zero) unless ``domain`` — the statement's own — proves a division-free
    form (:func:`mod_form`), ``//`` becomes ``floord``, and true division
    casts through ``double`` (Python ``/`` never truncates).
    """
    if isinstance(node, ast.BinOp):
        left = _expr_c(node.left, ranks, domain)
        right = _expr_c(node.right, ranks, domain)
        op = type(node.op)
        if op is ast.Mod:
            form = "mod"
            if domain is not None:
                try:
                    a = parse_affine(domain.space, ast.unparse(node.left))
                    m = parse_affine(domain.space, ast.unparse(node.right))
                except AffineSyntaxError:
                    pass
                else:
                    form = mod_form(domain, a, m)[0]
            return _MOD_C[form].format(a=left, m=right)
        if op is ast.FloorDiv:
            return f"floord({left}, {right})"
        if op is ast.Pow:
            return f"pow({left}, {right})"
        if op is ast.Div:
            return f"((double)({left}) / (double)({right}))"
        if op in _C_BINOPS:
            return f"({left} {_C_BINOPS[op]} {right})"
        raise CEmitError(f"cannot translate operator {op.__name__} to C")
    if isinstance(node, ast.UnaryOp):
        inner = _expr_c(node.operand, ranks, domain)
        if isinstance(node.op, ast.USub):
            return f"(-{inner})"
        if isinstance(node.op, ast.UAdd):
            return inner
        raise CEmitError(
            f"cannot translate operator {type(node.op).__name__} to C"
        )
    if isinstance(node, ast.Subscript):
        if not isinstance(node.value, ast.Name):
            raise CEmitError("only direct array subscripts translate to C")
        name = node.value.id
        idx = node.slice
        elts = list(idx.elts) if isinstance(idx, ast.Tuple) else [idx]
        if not elts:  # x[()] — the Python spelling of a scalar
            return f"{name}[0]"
        return name + "".join(f"[{_expr_c(e, ranks, domain)}]" for e in elts)
    if isinstance(node, ast.Name):
        if ranks.get(node.id) == 0:
            # scalar data marshals as a one-element buffer
            return f"{node.id}[0]"
        return node.id
    if isinstance(node, ast.Constant):
        v = node.value
        if isinstance(v, bool):
            return "1" if v else "0"
        if isinstance(v, (int, float)):
            # repr() is the shortest round-trip form; strtod parses it back
            # to the identical double, which bit-compatibility depends on
            return repr(v)
        raise CEmitError(f"cannot translate constant {v!r} to C")
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.keywords:
            raise CEmitError("only simple function calls translate to C")
        fn = _C_FUNCS.get(node.func.id)
        if fn is None:
            raise CEmitError(f"unknown function {node.func.id!r} in C body")
        args = ", ".join(_expr_c(a, ranks, domain) for a in node.args)
        return f"{fn}({args})"
    if isinstance(node, ast.IfExp):
        return (
            f"({_expr_c(node.test, ranks, domain)} ? "
            f"{_expr_c(node.body, ranks, domain)} : {_expr_c(node.orelse, ranks, domain)})"
        )
    if isinstance(node, ast.Compare):
        parts = []
        left = _expr_c(node.left, ranks, domain)
        for op, comp in zip(node.ops, node.comparators):
            cop = _C_CMPOPS.get(type(op))
            if cop is None:
                raise CEmitError(
                    f"cannot translate comparison {type(op).__name__} to C"
                )
            right = _expr_c(comp, ranks, domain)
            parts.append(f"({left} {cop} {right})")
            left = right
        return "(" + " && ".join(parts) + ")" if len(parts) > 1 else parts[0]
    if isinstance(node, ast.BoolOp):
        cop = " && " if isinstance(node.op, ast.And) else " || "
        return "(" + cop.join(_expr_c(v, ranks, domain) for v in node.values) + ")"
    raise CEmitError(f"cannot translate {type(node).__name__} to C")


def _c_body(stmt: Statement, ranks: dict[str, int]) -> str:
    """The statement's computation as compilable C.

    Translates the *Python* body, the semantics the Python emitter
    executes.  Raises :class:`CEmitError` for anything outside the
    affine-kernel body language (the native backend falls back to Python;
    ``repro opt --emit c`` exits 2).
    """
    src = (stmt.body or "").strip()
    if not src:
        raise CEmitError(f"statement {stmt.name!r} has no body")
    try:
        tree = ast.parse(src, mode="exec")
    except SyntaxError as e:
        raise CEmitError(
            f"statement {stmt.name!r} body is not parseable: {e}"
        ) from None
    if len(tree.body) != 1:
        raise CEmitError(
            f"statement {stmt.name!r} body must be a single assignment"
        )
    node = tree.body[0]
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        lhs = _expr_c(node.targets[0], ranks, stmt.domain)
        return f"{lhs} = {_expr_c(node.value, ranks, stmt.domain)};"
    if isinstance(node, ast.AugAssign):
        op = type(node.op)
        if op not in _C_BINOPS:
            raise CEmitError(
                f"cannot translate augmented {op.__name__} to C"
            )
        lhs = _expr_c(node.target, ranks, stmt.domain)
        return f"{lhs} {_C_BINOPS[op]}= {_expr_c(node.value, ranks, stmt.domain)};"
    raise CEmitError(
        f"statement {stmt.name!r} body must be a single assignment"
    )


class _CRenderer(TreeRenderer):
    """C syntax of the compilable translation unit."""

    lang = "c"
    indent = "  "
    AND, DIV = " && ", "/"
    # not INT64_MAX / INT64_MIN: an ``omp for`` counts ub - lb + 1 iterations,
    # which wraps to 2 on those and runs the body at z = INT64_MAX
    EMPTY = ("(INT64_C(1) << 62)", "-(INT64_C(1) << 62)")
    DECL = "const {int_t} {name} = {expr};"
    PICK = "({g} ? {a} : {b})"
    FOR = "for ({int_t} {z} = {lb}; {z} <= {ub}; {z}++) {{"
    IF = "if ({c}) {{"
    CLOSE = "}"
    int_t = "int64_t"

    def __init__(self, program: Program):
        super().__init__()
        self.ranks = array_ranks(program)

    def open_let(self, node, ind: int) -> None:
        self.line(ind, "{")
        super().open_let(node, ind + 1)

    def open_region(self, ind: int) -> None:
        self.line(ind, "#pragma omp parallel")
        self.line(ind, "{")

    def open_loop(self, node: Loop, ind: int, header: str) -> None:
        if node.fold:
            acc, split = node.fold
            self.line(ind, f"double {acc} = {REDUCTION_IDENTITY[split.op]};")
            if node.pragma:
                self.line(ind, f"#pragma omp parallel for reduction({split.op}:{acc})")
        elif node.pragma:
            self.line(ind, "#pragma omp parallel for")
        elif node.workshare:
            self.line(ind, "#pragma omp for")
        self.line(ind, header)

    def close_loop(self, node: Loop, ind: int) -> None:
        if node.fold:
            acc, split = node.fold
            target = _expr_c(split.target, self.ranks)
            self.line(ind, f"{target} = {target} {split.op} {acc};")

    def statement(self, inst: Instance, ind: int) -> None:
        stmt = inst.stmt
        if inst.split is None:
            self.line(ind, _c_body(stmt, self.ranks))
        else:
            update = _expr_c(inst.split.update, self.ranks, stmt.domain)
            lhs = inst.acc
            if lhs is None:
                lhs = _expr_c(inst.split.target, self.ranks, stmt.domain)
                self.line(ind, "#pragma omp atomic")
            self.line(ind, f"{lhs} {inst.split.op}= ({update});")


def _emit_kernel(tsched: TiledSchedule) -> str:
    program = tsched.program
    out = _CRenderer(program)
    out.line(0, f"/* {program.name}: repro native kernel */")
    out.line(0, "#include <math.h>")
    out.lines.append(_HEADER)
    out.line(
        0,
        f"void {KERNEL_ENTRY}(double **arrays, const int64_t *shapes, "
        f"const int64_t *params)",
    )
    out.line(0, "{")
    out.line(1, "(void)arrays; (void)shapes; (void)params;")
    for j, p in enumerate(program.params):
        out.line(1, f"const int64_t {p} = params[{j}]; (void){p};")
    offset = 0
    for idx, name in enumerate(sorted(program.arrays())):
        rank = out.ranks.get(name, 0)
        if rank <= 1:
            out.line(1, f"double *{name} = arrays[{idx}];")
        else:
            dims = []
            for k in range(1, rank):
                out.line(1, f"const int64_t {name}_n{k} = shapes[{offset + k}];")
                dims.append(f"[{name}_n{k}]")
            vla = "".join(dims)
            out.line(1, f"double (*{name}){vla} = (double (*){vla}) arrays[{idx}];")
        offset += rank
    out.render(build_loop_tree(tsched), 1)
    out.line(0, "}")
    return "\n".join(out.lines) + "\n" + _KERNEL_EPILOGUE


def generate_c_kernel(tsched: TiledSchedule) -> CKernelSource:
    """Render ``tsched`` as a complete, compilable C translation unit.

    Raises :class:`CEmitError` when the program cannot be expressed as a
    native kernel (statements without C body text).
    """
    program = tsched.program
    return CKernelSource(
        source=_emit_kernel(tsched),
        name=program.name,
        entry=KERNEL_ENTRY,
        array_order=tuple(sorted(program.arrays())),
        array_ranks=array_ranks(program),
        param_order=tuple(program.params),
    )
