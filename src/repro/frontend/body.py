"""Statement body handling: access extraction and C-to-Python conversion.

Statement bodies are written in a C-like surface syntax (``A[i][j+1] = 0.5 *
(A[i][j] + B[j][i]);``).  This module extracts the affine array accesses a
statement performs (feeding dependence analysis) and rewrites the body into
executable Python over numpy arrays (feeding the validation runtime):

* ``A[e1][e2]``       ->  ``A[e1, e2]``
* scalar data ``x``   ->  ``x[()]``   (0-d numpy arrays, so writes stick)
* known math calls (``sqrt``, ``pow``, ``exp``, ...) pass through; the
  runtime provides them in the execution namespace.

One non-affine subscript form is read: the periodic ``(d + 1) % P`` or
``(d - 1) % P``, with ``d`` a loop iterator and ``P`` a parameter, on a
statement whose domain provably lies within ``0 <= d <= P - 1``.  It is
exactly a union of guarded affine accesses (Section 2.4 / Fig. 4a-b):
``A[(i+1) % N]`` is ``A[i+1]`` on ``i <= N-2`` and ``A[i+1-N]`` (that is,
``A[0]``) on ``i == N-1``.  A read with several such subscripts becomes
one access per interior/wrap combination.
"""

from __future__ import annotations

import re
from typing import Sequence

from repro.frontend.exprs import AffineSyntaxError, parse_affine
from repro.frontend.ir import Access
from repro.polyhedra import AffExpr, AffineMap, BasicSet, Constraint, Space
from repro.polyhedra.fastcheck import fast_reject

__all__ = [
    "extract_accesses",
    "to_python",
    "split_assignment",
    "KNOWN_FUNCTIONS",
    "BodySyntaxError",
]


class BodySyntaxError(ValueError):
    pass


#: names treated as pure functions, not data
KNOWN_FUNCTIONS = {
    "sqrt", "pow", "exp", "log", "sin", "cos", "tan", "fabs", "abs",
    "floor", "ceil", "fmin", "fmax", "min", "max",
}

_ARRAY_REF = re.compile(r"([A-Za-z_]\w*)((?:\s*\[[^\[\]]+\])+)")
_NAME = re.compile(r"[A-Za-z_]\w*")
_SUBSCRIPT = re.compile(r"\[([^\[\]]+)\]")
_PERIODIC = re.compile(r"\(\s*([A-Za-z_]\w*)\s*([+-])\s*1\s*\)\s*%\s*([A-Za-z_]\w*)")


def split_assignment(body: str) -> tuple[str, str, str]:
    """Split ``lhs op= rhs`` into ``(lhs, op, rhs)`` where op is '' or '+'/'-'/'*'.

    The body may end with a semicolon.  ``==`` never appears at statement
    level in this surface language.
    """
    text = body.strip().rstrip(";").strip()
    m = re.search(r"(\+|\-|\*|/)?=(?!=)", text)
    if not m:
        raise BodySyntaxError(f"no assignment in statement body {body!r}")
    lhs = text[: m.start()].strip()
    rhs = text[m.end():].strip()
    op = m.group(1) or ""
    return lhs, op, rhs


def _array_refs(text: str) -> list[tuple[str, list[str]]]:
    """All ``name[sub]...[sub]`` references with their subscript strings."""
    out = []
    for m in _ARRAY_REF.finditer(text):
        subs = _SUBSCRIPT.findall(m.group(2))
        out.append((m.group(1), subs))
    return out


def _scalar_names(text: str, space: Space, arrays_seen: set[str]) -> list[str]:
    """Names that are data scalars: not iterators/params/functions/arrays,
    in order of first appearance (the program's IR, and every key hashed
    from it, must not follow the interpreter's string hashing)."""
    reserved = set(space.names) | KNOWN_FUNCTIONS | arrays_seen
    names = dict.fromkeys(_NAME.findall(text))
    # strip names that are immediately followed by '[' (array refs) — they
    # are collected by _array_refs — and names followed by '(' (calls).
    out = []
    for name in names:
        if name in reserved:
            continue
        pattern = re.compile(rf"\b{re.escape(name)}\b\s*([\[\(])?")
        is_data = False
        for m in pattern.finditer(text):
            if m.group(1) is None:
                is_data = True
            elif m.group(1) == "[":
                is_data = False  # array ref, handled elsewhere
                break
        if is_data:
            out.append(name)
    return out


def _within(domain: BasicSet, d: str, p: str) -> bool:
    """Whether ``domain`` provably lies within ``0 <= d <= p - 1``."""
    sp = domain.space
    dv, pv = AffExpr.var(sp, d), AffExpr.var(sp, p)
    for outside in (Constraint(-dv - 1), Constraint(dv - pv)):  # d < 0, d >= p
        q = domain.intersect(BasicSet(sp, [outside]))
        if not (fast_reject(q) or q.is_empty()):
            return False
    return True


def _pieces(name: str, subs: list[str], domain: BasicSet, written: bool) -> list[Access]:
    """The accesses of ``name[subs]``: one, or one per interior/wrap
    combination of its periodic subscripts (never on the ``written``
    reference)."""
    sp = domain.space
    exprs: list = []
    periodic = []  # (position, iterator, shift, period)
    for k, sub in enumerate(subs):
        if "%" not in sub:
            try:
                exprs.append(parse_affine(sp, sub))
            except AffineSyntaxError as exc:
                raise BodySyntaxError(
                    f"non-affine subscript in {name}{subs}: {exc}"
                ) from exc
            continue
        if written:
            raise BodySyntaxError(
                f"subscript {sub!r} of the written {name}: a write takes "
                f"affine subscripts only"
            )
        m = _PERIODIC.fullmatch(sub.strip())
        if not m or m.group(1) not in sp.dims or m.group(3) not in sp.params:
            raise BodySyntaxError(
                f"subscript {sub!r} of {name}: the only modulus read is "
                f"(d + 1) % P or (d - 1) % P, d a loop iterator, P a parameter"
            )
        d, p = m.group(1), m.group(3)
        if not _within(domain, d, p):
            raise BodySyntaxError(
                f"subscript {sub!r} of {name}: the domain does not provably "
                f"lie within 0 <= {d} <= {p} - 1"
            )
        exprs.append(None)
        periodic.append((k, d, 1 if m.group(2) == "+" else -1, p))
    out = []
    for mask in range(1 << len(periodic)):
        guard = BasicSet(sp)
        for bit, (k, d, s, p) in enumerate(periodic):
            dv, n = AffExpr.var(sp, d), AffExpr.var(sp, p)
            if mask >> bit & 1:  # wrap: d == P-1 reads d+1-P, d == 0 reads d-1+P
                guard.add(Constraint(dv - (n - 1) if s > 0 else dv, equality=True))
                exprs[k] = dv + s - n if s > 0 else dv + s + n
            else:  # interior: d <= P-2, or d >= 1
                guard.add(Constraint((n - 2) - dv if s > 0 else dv - 1))
                exprs[k] = dv + s
        out.append(Access(name, AffineMap(sp, list(exprs)), guard if periodic else None))
    return out


def extract_accesses(body: str, domain: BasicSet) -> tuple[list[Access], list[Access]]:
    """Extract the (writes, reads) :class:`Access` lists of a statement body
    over ``domain``, the statement's index set.

    Scalars appear as 0-dimensional accesses.  Compound assignments add the
    LHS to the reads as well.  A read repeated in the body is recorded once,
    at its first occurrence.  A periodic subscript (module docstring) is
    read only on the right-hand side; any other ``%`` in a subscript raises
    :class:`BodySyntaxError`.
    """
    lhs, op, rhs = split_assignment(body)

    def refs_of(text: str, written: bool) -> list[Access]:
        refs = []
        arrays = set()
        for name, subs in _array_refs(text):
            if name in KNOWN_FUNCTIONS:
                continue
            arrays.add(name)
            refs += _pieces(name, subs, domain, written)
        for name in _scalar_names(text, domain.space, arrays):
            refs.append(Access(name, AffineMap(domain.space, [])))
        return refs

    writes = refs_of(lhs, True)
    if len(writes) != 1:
        raise BodySyntaxError(
            f"statement must write exactly one location, got {len(writes)} in {body!r}"
        )
    reads: list[Access] = []
    # compound assignment also reads the written location
    for acc in (writes if op else []) + refs_of(rhs, False):
        if acc not in reads:
            reads.append(acc)
    return writes, reads


def to_python(body: str, space: Space, arrays: Sequence[str]) -> str:
    """Rewrite a C-like body into executable Python over numpy arrays."""
    lhs, op, rhs = split_assignment(body)
    array_set = set(arrays)

    def conv(text: str) -> str:
        def repl(m: re.Match) -> str:
            name = m.group(1)
            subs = _SUBSCRIPT.findall(m.group(2))
            if name in KNOWN_FUNCTIONS:
                return m.group(0)
            return f"{name}[{', '.join(subs)}]"

        out = _ARRAY_REF.sub(repl, text)
        # scalar data -> 0-d numpy indexing
        for name in _scalar_names(text, space, array_set):
            out = re.sub(rf"\b{re.escape(name)}\b(?!\s*[\[\(])", f"{name}[()]", out)
        return out

    py_op = f"{op}=" if op else "="
    out_lhs, out_rhs = conv(lhs), conv(rhs)
    m = _NAME.fullmatch(lhs.strip())
    if m and m.group(0) not in space.names and m.group(0) not in KNOWN_FUNCTIONS:
        # A *written* scalar must go through 0-d indexing — a bare-name
        # assignment would rebind the kernel's local and the store would
        # never reach the caller's array.  Read-only scalars stay bare
        # (0-d ndarray arithmetic reads fine, and historical bodies —
        # hence cache keys — must not change spelling).
        name = m.group(0)
        out_lhs = f"{name}[()]"
        out_rhs = re.sub(
            rf"\b{re.escape(name)}\b(?!\s*[\[\(])", f"{name}[()]", out_rhs
        )
    return f"{out_lhs} {py_op} {out_rhs}"
