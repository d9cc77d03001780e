"""Reduction detection and self-dependence relaxation.

Commutative-associative accumulations (``C[i][j] = C[i][j] + ...``, dot
products, variance sums) serialize their accumulation dimension under the
exact dependence model: the statement's self-dependence on the accumulator
is carried by every iterator that does not appear in the written cell's
subscripts.  Following Doerfert et al. ("Polly's Polyhedral Scheduling in
the Presence of Reductions"), those self-dependences may be *relaxed* —
removed from the legality set handed to the scheduler — because any
execution order of the accumulation yields the same result up to
floating-point reassociation.  The pipeline then discharges the relaxed
dependences at emission time (privatized partial sums on the Python
backend, ``#pragma omp .. reduction(..)`` clauses on the C backend), and
verification switches from bitwise to tolerance comparison.

Detection works on the executable ``stmt.body`` (the Python form the
validation runtime runs): a statement is a reduction when its body is
``T[idx] = T[idx] op expr`` (or the compound ``T[idx] op= expr``) with
``op`` commutative-associative (``+``/``*``; ``-`` is folded into ``+`` of
the negated update) and ``expr`` never reading ``T``, and at least one
statement iterator is absent from the written subscripts — those
iterators are the reduction dimensions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.deps.analysis import Dependence
from repro.frontend.ir import Program, Statement

__all__ = [
    "REDUCTION_IDENTITY",
    "ReductionInfo",
    "ReductionSplit",
    "detect_reductions",
    "reduction_split",
    "relax_reduction_deps",
    "tag_reduction_rows",
]

#: identity element emitted as the partial-sum seed, per combine operator
REDUCTION_IDENTITY = {"+": "0.0", "*": "1.0"}


@dataclass(frozen=True)
class ReductionInfo:
    """One detected reduction statement."""

    stmt: str                 # statement name
    array: str                # accumulator array
    op: str                   # combine operator: "+" | "*"
    dims: tuple[str, ...]     # reduction iterators (absent from the write)


@dataclass
class ReductionSplit:
    """AST-level split of a reduction body, shared by both emitters.

    ``update`` is the expression accumulated into the target; for a ``-``
    body it is the negated operand and ``op`` is ``"+"``, so
    ``target = target op update`` is always an exact rewrite.
    """

    array: str
    op: str
    target: ast.expr          # the written subscript, e.g. ``C[i, j]``
    update: ast.expr          # the accumulated expression


def _references_name(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(n, ast.Name) and n.id == name for n in ast.walk(node)
    )


def _subscript_base(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
        return node.value.id
    return None


def reduction_split(body: str) -> Optional[ReductionSplit]:
    """Parse a statement body and split it as a reduction, or ``None``.

    Accepts the executable Python body form (``C[i, j] = C[i, j] + e``,
    ``s[()] = s[()] * e``, ``T[idx] += e``).  The update expression must
    not read the accumulator array.
    """
    try:
        tree = ast.parse(body.strip())
    except SyntaxError:
        return None
    if len(tree.body) != 1:
        return None
    node = tree.body[0]

    if isinstance(node, ast.AugAssign):
        array = _subscript_base(node.target)
        if array is None:
            return None
        if isinstance(node.op, ast.Add):
            op, update = "+", node.value
        elif isinstance(node.op, ast.Mult):
            op, update = "*", node.value
        elif isinstance(node.op, ast.Sub):
            op, update = "+", ast.UnaryOp(ast.USub(), node.value)
        else:
            return None
        if _references_name(node.value, array):
            return None
        return ReductionSplit(array, op, node.target, update)

    if not isinstance(node, ast.Assign) or len(node.targets) != 1:
        return None
    target = node.targets[0]
    array = _subscript_base(target)
    if array is None or not isinstance(node.value, ast.BinOp):
        return None
    value = node.value
    if isinstance(value.op, ast.Add):
        op = "+"
    elif isinstance(value.op, ast.Mult):
        op = "*"
    elif isinstance(value.op, ast.Sub):
        op = "-"
    else:
        return None
    target_src = ast.unparse(target)
    left_is = ast.unparse(value.left) == target_src
    right_is = ast.unparse(value.right) == target_src
    if op == "-":
        # subtraction only commutes as target - e == target + (-e)
        if not left_is or right_is:
            return None
        update: ast.expr = ast.UnaryOp(ast.USub(), value.right)
        op = "+"
    elif left_is == right_is:
        # both (T = T + T: degenerate) or neither operand is the target
        return None
    else:
        update = value.right if left_is else value.left
    if _references_name(update, array):
        return None
    return ReductionSplit(array, op, target, update)


def detect_reductions(program: Program) -> list[ReductionInfo]:
    """All reduction statements of ``program``, in statement order."""
    out: list[ReductionInfo] = []
    for stmt in program.statements:
        info = _detect_one(stmt)
        if info is not None:
            out.append(info)
    return out


def _detect_one(stmt: Statement) -> Optional[ReductionInfo]:
    split = reduction_split(stmt.body)
    if split is None:
        return None
    if len(stmt.writes) != 1 or stmt.writes[0].array != split.array:
        return None
    write = stmt.writes[0]
    used = set()
    for expr in write.map.exprs:
        for dim in stmt.space.dims:
            if expr.coeff_of(dim):
                used.add(dim)
    dims = tuple(d for d in stmt.space.dims if d not in used)
    if not dims:
        return None  # every iterator addresses the cell: nothing to relax
    return ReductionInfo(stmt.name, split.array, split.op, dims)


def relax_reduction_deps(
    deps: Sequence[Dependence], reductions: Sequence[ReductionInfo]
) -> tuple[list[Dependence], list[Dependence]]:
    """Split ``deps`` into ``(kept, relaxed)``.

    A dependence is relaxed when it is a *self*-dependence of a reduction
    statement on its accumulator array.  Because detection rejects bodies
    whose update expression reads the accumulator, every such
    self-dependence connects two accumulations of the same cell — exactly
    the ordering the commutative-associative operator makes irrelevant.
    Inter-statement dependences (initialization, finalization, consumers)
    are always kept.
    """
    accumulators = {(r.stmt, r.array) for r in reductions}
    kept: list[Dependence] = []
    relaxed: list[Dependence] = []
    for d in deps:
        if d.source is d.target and (d.source.name, d.array) in accumulators:
            relaxed.append(d)
        else:
            kept.append(d)
    return kept, relaxed


def tag_reduction_rows(
    schedule,
    carried: dict[int, list],
    reductions: Sequence[ReductionInfo],
    mode: str,
) -> int:
    """Tag schedule rows that are parallel only thanks to relaxation.

    ``carried`` is :func:`repro.core.properties.mark_parallelism`'s report:
    level index -> relaxed dependences that level would carry.  A row both
    marked parallel (no *real* dependence carried) and present in
    ``carried`` is a reduction dimension — executing it in parallel
    reorders an accumulation, nothing else — so it gets the emitter-facing
    ``row.reduction`` tags.  Returns the number of rows tagged.
    """
    info_by_key = {(r.stmt, r.array): r for r in reductions}
    tagged = 0
    for level, deps in carried.items():
        row = schedule.rows[level]
        if not row.parallel:
            continue
        tags: list[dict] = []
        for d in deps:
            info = info_by_key.get((d.source.name, d.array))
            if info is None:
                continue
            tag = {
                "stmt": info.stmt,
                "array": info.array,
                "op": info.op,
                "mode": mode,
            }
            if tag not in tags:
                tags.append(tag)
        if tags:
            row.reduction = tags
            tagged += 1
    return tagged
