"""A front-end parser for affine loop nests in C-like syntax (pet's role).

Supported language::

    for (i = 0; i <= N - 1; i++) {
        for (j = 0; j < N; j++) {          // '<' bound is normalized
            if (j <= i - 1) {
                S1: A[i][j] = A[i][j] / A[j][j];
            }
            B[i][j] = A[i][j] + 0.5;       // auto-named statements
        }
    }

* loops must have unit increment (``i++``);
* conditions and bounds must be affine in outer iterators and parameters;
* statement bodies are single assignments (``=``, ``+=``, ``-=``, ``*=``);
* a read subscript may be periodic, ``A[t][(i+1) % N]`` under a
  ``0 .. N-1`` loop on ``i`` (:mod:`repro.frontend.body`);
* ``//`` and ``/* */`` comments are stripped.
"""

from __future__ import annotations

import re
from typing import Sequence

from repro.frontend.builder import ProgramBuilder
from repro.frontend.ir import Program

__all__ = ["parse_program", "ParseError"]


class ParseError(ValueError):
    pass


_COMMENTS = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)
_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>\+\+|--|\+=|-=|\*=|/=|<=|>=|==|!=|&&|\|\||[-+*/%<>=!?:;,(){}\[\]])"
    r")"
)


def _tokenize(src: str) -> list[str]:
    src = _COMMENTS.sub(" ", src)
    tokens: list[str] = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m or m.end() == pos:
            rest = src[pos:].strip()
            if not rest:
                break
            raise ParseError(f"cannot tokenize near {rest[:40]!r}")
        pos = m.end()
        tokens.append(m.group(0).strip())
    return tokens


class _CParser:
    def __init__(self, tokens: list[str], builder: ProgramBuilder):
        self.toks = tokens
        self.pos = 0
        self.b = builder

    # -- token helpers ----------------------------------------------------

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r} at token {self.pos}")

    def _collect_until(self, closers: set[str]) -> str:
        """Join tokens (with spaces) until one of ``closers`` at depth 0."""
        depth = 0
        parts: list[str] = []
        while True:
            tok = self.peek()
            if tok is None:
                raise ParseError(f"expected one of {closers} before end of input")
            if depth == 0 and tok in closers:
                return " ".join(parts)
            if tok in "([{":
                depth += 1
            elif tok in ")]}":
                depth -= 1
                if depth < 0:
                    return " ".join(parts)
            parts.append(self.next())

    # -- grammar -------------------------------------------------------------

    def parse_block_items(self) -> None:
        while True:
            tok = self.peek()
            if tok is None or tok == "}":
                return
            self.parse_item()

    def parse_item(self) -> None:
        tok = self.peek()
        if tok == "for":
            self.parse_for()
        elif tok == "if":
            self.parse_if()
        elif tok == "{":
            self.next()
            self.parse_block_items()
            self.expect("}")
        else:
            self.parse_statement()

    def parse_for(self) -> None:
        self.expect("for")
        self.expect("(")
        it = self.next()
        self.expect("=")
        lb = self._collect_until({";"})
        self.expect(";")
        it2 = self.next()
        if it2 != it:
            raise ParseError(f"loop condition on {it2!r}, expected {it!r}")
        rel = self.next()
        ub = self._collect_until({";"})
        self.expect(";")
        if rel == "<":
            ub = f"({ub}) - 1"
        elif rel != "<=":
            raise ParseError(f"unsupported loop relation {rel!r}")
        it3 = self.next()
        inc = self.next()
        if it3 != it or inc != "++":
            raise ParseError(f"only unit-increment loops supported ({it}{inc})")
        self.expect(")")
        with self.b.loop(it, lb, ub):
            self.parse_body()

    def parse_if(self) -> None:
        self.expect("if")
        self.expect("(")
        cond = self._collect_until({")"})
        self.expect(")")
        with self.b.guard(cond):
            self.parse_body()

    def parse_body(self) -> None:
        if self.peek() == "{":
            self.next()
            self.parse_block_items()
            self.expect("}")
        else:
            self.parse_item()

    def parse_statement(self) -> None:
        name = None
        if (
            self.pos + 1 < len(self.toks)
            and re.fullmatch(r"[A-Za-z_]\w*", self.toks[self.pos])
            and self.toks[self.pos + 1] == ":"
        ):
            name = self.next()
            self.next()  # ':'
        body = self._collect_until({";"})
        self.expect(";")
        if not body:
            return
        self.b.stmt(_respace(body), name=name)


def _respace(body: str) -> str:
    """Tighten token-joined text back into readable C (cosmetic only)."""
    out = body
    out = re.sub(r"\s*\[\s*", "[", out)
    out = re.sub(r"\s*\]", "]", out)
    out = re.sub(r"\s*\(\s*", "(", out)
    out = re.sub(r"\s*\)", ")", out)
    out = re.sub(r"\s*,\s*", ", ", out)
    return out


def parse_program(
    source: str,
    name: str,
    params: Sequence[str] = (),
    param_min=2,
) -> Program:
    """Parse C-like loop-nest ``source`` into a polyhedral :class:`Program`."""
    builder = ProgramBuilder(name, params, param_min)
    parser = _CParser(_tokenize(source), builder)
    parser.parse_block_items()
    if parser.peek() is not None:
        raise ParseError(f"unexpected token {parser.peek()!r} at top level")
    return builder.build()
