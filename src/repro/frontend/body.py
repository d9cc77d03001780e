"""Statement body handling: access extraction and C-to-Python conversion.

Statement bodies are written in a C-like surface syntax (``A[i][j+1] = 0.5 *
(A[i][j] + B[j][i]);``).  This module extracts the affine array accesses a
statement performs (feeding dependence analysis) and rewrites the body into
executable Python over numpy arrays (feeding the validation runtime):

* ``A[e1][e2]``       ->  ``A[e1, e2]``
* scalar data ``x``   ->  ``x[()]``   (0-d numpy arrays, so writes stick)
* known math calls (``sqrt``, ``pow``, ``exp``, ...) pass through; the
  runtime provides them in the execution namespace.
"""

from __future__ import annotations

import re
from typing import Sequence

from repro.frontend.exprs import AffineSyntaxError, parse_affine
from repro.polyhedra import AffineMap, Space

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


def extract_accesses(
    body: str, space: Space
) -> tuple[list[tuple[str, AffineMap]], list[tuple[str, AffineMap]]]:
    """Extract (writes, reads) as ``(array, index-map)`` pairs from a body.

    Scalars appear as 0-dimensional accesses.  Compound assignments add the
    LHS to the reads as well.
    """
    lhs, op, rhs = split_assignment(body)

    def refs_of(text: str) -> list[tuple[str, AffineMap]]:
        refs = []
        arrays = set()
        for name, subs in _array_refs(text):
            if name in KNOWN_FUNCTIONS:
                continue
            arrays.add(name)
            try:
                exprs = [parse_affine(space, s) for s in subs]
            except AffineSyntaxError as exc:
                raise BodySyntaxError(
                    f"non-affine subscript in {name}{subs}: {exc}"
                ) from exc
            refs.append((name, AffineMap(space, exprs)))
        for name in _scalar_names(text, space, arrays):
            refs.append((name, AffineMap(space, [])))
        return refs

    writes = refs_of(lhs)
    if len(writes) != 1:
        raise BodySyntaxError(
            f"statement must write exactly one location, got {len(writes)} in {body!r}"
        )
    reads = refs_of(rhs)
    # Subscript expressions of the LHS may themselves read arrays — not
    # supported in this affine surface language (subscripts are pure index
    # expressions), so nothing further to collect.
    if op:  # compound assignment also reads the written location
        reads = writes + reads
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
