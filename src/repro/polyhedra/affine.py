"""Spaces and affine expressions.

A :class:`Space` fixes an ordered list of *dimension* names (loop iterators),
*parameter* names (problem-size symbols like ``N``), and an implicit constant
column.  Affine expressions and constraints are coefficient vectors over that
column order — ``dims + params + (1,)`` — which keeps every downstream
operation (Fourier–Motzkin, Farkas elimination, code generation) a matter of
integer vector arithmetic.

Coefficients are Python ints from construction on.  The public
``AffExpr(space, coeffs)`` checks its input (length, and every coefficient
an exact integer); arithmetic, :meth:`AffExpr.rebase` and the normalizers,
whose results are tuples of ints already, build through :func:`_make`, which
checks nothing.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

__all__ = ["Space", "AffExpr"]


@dataclass(frozen=True, eq=False)
class Space:
    """An ordered coordinate system: dims, then params, then the constant."""

    dims: tuple[str, ...]
    params: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = list(self.dims) + list(self.params)
        columns = {name: i for i, name in enumerate(names)}
        if len(columns) != len(names):
            raise ValueError(f"duplicate names in space: {names}")
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "_hash", hash((self.dims, self.params)))
        #: the number of columns: dims, params and the constant
        object.__setattr__(self, "ncols", len(names) + 1)

    # Equality and hash are the field-tuple ones a dataclass generates, with
    # an identity shortcut: most compares are of a space with itself.
    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.dims == other.dims and self.params == other.params

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # ``_columns``, ``_hash`` and ``ncols`` are derived (and a str hash
        # is salted per process): rebuild them rather than pickle them.
        return (Space, (self.dims, self.params))

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def names(self) -> tuple[str, ...]:
        return self.dims + self.params

    def column_of(self, name: str) -> int:
        """Column index of a dim or param; the constant column is ``ncols - 1``."""
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(f"{name!r} not in space {self}") from None

    @property
    def const_col(self) -> int:
        return self.ncols - 1

    def add_dims(self, new: Sequence[str]) -> "Space":
        return Space(self.dims + tuple(new), self.params)

    def drop_dims(self, names: Iterable[str]) -> "Space":
        drop = set(names)
        return Space(tuple(d for d in self.dims if d not in drop), self.params)

    def product(self, other: "Space", rename: Mapping[str, str]) -> "Space":
        """Product space with ``other``'s dims renamed via ``rename``."""
        if self.params != other.params:
            raise ValueError("product requires identical parameter lists")
        other_dims = tuple(rename.get(d, d) for d in other.dims)
        return Space(self.dims + other_dims, self.params)

    def __str__(self) -> str:
        p = f"; {', '.join(self.params)}" if self.params else ""
        return f"[{', '.join(self.dims)}{p}]"


def _integral(value) -> int:
    """``value`` as a Python int, when it is an exact integer.

    ``2``, ``numpy.int64(2)`` and ``Fraction(4, 2)`` pass; ``1.9``,
    ``Fraction(1, 2)``, ``"2"`` and ``True`` raise — a coefficient that is
    not an integer is an error, never truncated.
    """
    if type(value) is int:
        return value
    if isinstance(value, bool):
        raise TypeError(f"coefficient {value!r} is a bool, not an integer")
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise ValueError(f"coefficient {value} is not an integer")
        return int(value)
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(
            f"coefficient {value!r} is not an integer "
            f"({type(value).__name__})"
        ) from None


_INT_ONLY = {int}


class AffExpr:
    """An integer affine expression over a :class:`Space`.

    Stored as a coefficient tuple of length ``space.ncols`` (constant last).
    Immutable; arithmetic returns new expressions.
    """

    __slots__ = ("space", "coeffs")

    def __init__(self, space: Space, coeffs: Sequence[int]):
        if len(coeffs) != space.ncols:
            raise ValueError(
                f"expected {space.ncols} coefficients, got {len(coeffs)}"
            )
        coeffs = tuple(coeffs)
        if {*map(type, coeffs)} != _INT_ONLY:
            coeffs = tuple(map(_integral, coeffs))
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):  # immutability
        raise AttributeError("AffExpr is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, space: Space) -> "AffExpr":
        return _make(space, (0,) * space.ncols)

    @classmethod
    def const(cls, space: Space, value: int) -> "AffExpr":
        coeffs = [0] * space.ncols
        coeffs[-1] = _integral(value)
        return _make(space, tuple(coeffs))

    @classmethod
    def var(cls, space: Space, name: str, coeff: int = 1) -> "AffExpr":
        coeffs = [0] * space.ncols
        coeffs[space.column_of(name)] = _integral(coeff)
        return _make(space, tuple(coeffs))

    @classmethod
    def from_terms(
        cls, space: Space, terms: Mapping[str, int], const: int = 0
    ) -> "AffExpr":
        coeffs = [0] * space.ncols
        columns = space._columns
        for name, c in terms.items():
            try:
                coeffs[columns[name]] += _integral(c)
            except KeyError:
                raise KeyError(f"{name!r} not in space {space}") from None
        coeffs[-1] += _integral(const)
        return _make(space, tuple(coeffs))

    # -- accessors -------------------------------------------------------------

    def coeff_of(self, name: str) -> int:
        return self.coeffs[self.space.column_of(name)]

    @property
    def const_term(self) -> int:
        return self.coeffs[-1]

    def terms(self) -> dict[str, int]:
        """Nonzero named coefficients (constant excluded)."""
        return {
            name: self.coeffs[i]
            for i, name in enumerate(self.space.names)
            if self.coeffs[i] != 0
        }

    def is_constant(self) -> bool:
        return not any(self.coeffs[:-1])

    def evaluate(self, values: Mapping[str, int]) -> int:
        total = self.coeffs[-1]
        for i, name in enumerate(self.space.names):
            c = self.coeffs[i]
            if c:
                total += c * values[name]
        return total

    # -- arithmetic --------------------------------------------------------------

    def _coerce(self, other) -> "AffExpr":
        if isinstance(other, AffExpr):
            if other.space != self.space:
                raise ValueError("space mismatch in AffExpr arithmetic")
            return other
        if isinstance(other, int):
            return AffExpr.const(self.space, other)
        return NotImplemented  # pragma: no cover

    def __add__(self, other) -> "AffExpr":
        o = self._coerce(other)
        return _make(self.space, tuple([a + b for a, b in zip(self.coeffs, o.coeffs)]))

    __radd__ = __add__

    def __sub__(self, other) -> "AffExpr":
        o = self._coerce(other)
        return _make(self.space, tuple([a - b for a, b in zip(self.coeffs, o.coeffs)]))

    def __rsub__(self, other) -> "AffExpr":
        return self._coerce(other) - self

    def __neg__(self) -> "AffExpr":
        return _make(self.space, tuple([-a for a in self.coeffs]))

    def __mul__(self, k: int) -> "AffExpr":
        k = _integral(k)
        return _make(self.space, tuple([a * k for a in self.coeffs]))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AffExpr)
            and self.space == other.space
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.space, self.coeffs))

    def __reduce__(self):
        # Immutable __slots__ class: default unpickling would go through
        # __setattr__, which raises.  Rebuild through the constructor.
        return (AffExpr, (self.space, self.coeffs))

    # -- rebasing ------------------------------------------------------------------

    def rebase(self, target: Space, rename: Mapping[str, str] | None = None) -> "AffExpr":
        """Express this expression in ``target`` (a superspace), renaming dims.

        A nonzero coefficient on a name ``target`` lacks raises ``KeyError``;
        a zero one is dropped.  When ``rename`` sends two names to one, the
        later nonzero coefficient (in column order) is the one kept.
        """
        key = (self.space, target, tuple(rename.items()) if rename else ())
        columns = _EMBEDDINGS.get(key)
        if columns is None:
            columns = _embedding(self.space, target, rename or {})
            if len(_EMBEDDINGS) >= EMBEDDING_CAP:
                _EMBEDDINGS.clear()
            _EMBEDDINGS[key] = columns
        out = [0] * target.ncols
        coeffs = self.coeffs
        for i, j in enumerate(columns):
            c = coeffs[i]
            if c:
                if j.__class__ is str:  # the name target lacks
                    raise KeyError(f"{j!r} not in space {target}")
                out[j] = c
        out[-1] = coeffs[-1]
        return _make(target, tuple(out))

    def normalized(self) -> "AffExpr":
        """Divide by the GCD of all coefficients (sign preserved)."""
        g = gcd(*self.coeffs)
        if g <= 1:
            return self
        return _make(self.space, tuple([c // g for c in self.coeffs]))

    def __str__(self) -> str:
        parts = []
        for i, name in enumerate(self.space.names):
            c = self.coeffs[i]
            if c == 0:
                continue
            if c == 1:
                parts.append(f"+ {name}")
            elif c == -1:
                parts.append(f"- {name}")
            elif c > 0:
                parts.append(f"+ {c}{name}")
            else:
                parts.append(f"- {-c}{name}")
        if self.coeffs[-1] > 0:
            parts.append(f"+ {self.coeffs[-1]}")
        elif self.coeffs[-1] < 0:
            parts.append(f"- {-self.coeffs[-1]}")
        if not parts:
            return "0"
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:] if text.startswith("- ") else text

    __repr__ = __str__


_new_expr = object.__new__
_set_space = AffExpr.space.__set__
_set_coeffs = AffExpr.coeffs.__set__


def _make(space: Space, coeffs: tuple) -> AffExpr:
    """An :class:`AffExpr` from a tuple of ``space.ncols`` Python ints,
    unchecked: the path of every result this module computes itself."""
    expr = _new_expr(AffExpr)
    _set_space(expr, space)
    _set_coeffs(expr, coeffs)
    return expr


#: most (source space, target space, rename) embeddings :meth:`AffExpr.rebase`
#: remembers; the memo is emptied when full (long-lived daemon workers)
EMBEDDING_CAP = 4096

_EMBEDDINGS: dict[tuple, tuple] = {}


def _embedding(source: Space, target: Space, rename: Mapping[str, str]) -> tuple:
    """Per non-constant column of ``source``: its column in ``target``
    after ``rename``, or the renamed name itself when ``target`` lacks it."""
    columns = target._columns
    out = []
    for name in source.names:
        name = rename.get(name, name)
        out.append(columns.get(name, name))
    return tuple(out)
