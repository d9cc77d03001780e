"""Spaces and affine expressions.

A :class:`Space` fixes an ordered list of *dimension* names (loop iterators),
*parameter* names (problem-size symbols like ``N``), and an implicit constant
column.  Affine expressions and constraints are coefficient vectors over that
column order — ``dims + params + (1,)`` — which keeps every downstream
operation (Fourier–Motzkin, Farkas elimination, code generation) a matter of
integer vector arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Mapping, Sequence

__all__ = ["Space", "AffExpr"]


@dataclass(frozen=True)
class Space:
    """An ordered coordinate system: dims, then params, then the constant."""

    dims: tuple[str, ...]
    params: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = list(self.dims) + list(self.params)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate names in space: {names}")

    @property
    def ncols(self) -> int:
        return len(self.dims) + len(self.params) + 1

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def names(self) -> tuple[str, ...]:
        return self.dims + self.params

    def column_of(self, name: str) -> int:
        """Column index of a dim or param; the constant column is ``ncols - 1``."""
        if name in self.dims:
            return self.dims.index(name)
        if name in self.params:
            return len(self.dims) + self.params.index(name)
        raise KeyError(f"{name!r} not in space {self}")

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
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coeffs", tuple(int(c) for c in coeffs))

    def __setattr__(self, *a):  # immutability
        raise AttributeError("AffExpr is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, space: Space) -> "AffExpr":
        return cls(space, (0,) * space.ncols)

    @classmethod
    def const(cls, space: Space, value: int) -> "AffExpr":
        coeffs = [0] * space.ncols
        coeffs[-1] = int(value)
        return cls(space, coeffs)

    @classmethod
    def var(cls, space: Space, name: str, coeff: int = 1) -> "AffExpr":
        coeffs = [0] * space.ncols
        coeffs[space.column_of(name)] = int(coeff)
        return cls(space, coeffs)

    @classmethod
    def from_terms(
        cls, space: Space, terms: Mapping[str, int], const: int = 0
    ) -> "AffExpr":
        coeffs = [0] * space.ncols
        for name, c in terms.items():
            coeffs[space.column_of(name)] += int(c)
        coeffs[-1] += int(const)
        return cls(space, coeffs)

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
        return all(c == 0 for c in self.coeffs[:-1])

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
        return AffExpr(self.space, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __sub__(self, other) -> "AffExpr":
        o = self._coerce(other)
        return AffExpr(self.space, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other) -> "AffExpr":
        return self._coerce(other) - self

    def __neg__(self) -> "AffExpr":
        return AffExpr(self.space, [-a for a in self.coeffs])

    def __mul__(self, k: int) -> "AffExpr":
        return AffExpr(self.space, [a * int(k) for a in self.coeffs])

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
        """Express this expression in ``target`` (a superspace), renaming dims."""
        rename = rename or {}
        terms = {
            rename.get(name, name): coeff for name, coeff in self.terms().items()
        }
        return AffExpr.from_terms(target, terms, self.const_term)

    def normalized(self) -> "AffExpr":
        """Divide by the GCD of all coefficients (sign preserved)."""
        g = 0
        for c in self.coeffs:
            g = gcd(g, abs(c))
        if g <= 1:
            return self
        return AffExpr(self.space, [c // g for c in self.coeffs])

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
