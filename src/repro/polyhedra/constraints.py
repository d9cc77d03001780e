"""Affine constraints over a :class:`~repro.polyhedra.affine.Space`.

A constraint is ``expr >= 0`` (inequality) or ``expr == 0`` (equality), with
``expr`` an integer :class:`AffExpr`.  Constraints are normalized on
construction: coefficients divided by their GCD, with inequality constants
tightened to the integer hull of the single constraint
(``floor`` division of the constant by the GCD of the variable coefficients).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.polyhedra.affine import AffExpr, Space, _make
from repro.polyhedra.fourier_motzkin import _gcd_normalize

__all__ = ["Constraint", "ineq", "eq"]


class Constraint:
    """``expr >= 0`` or ``expr == 0`` over a space."""

    __slots__ = ("expr", "equality")

    def __init__(self, expr: AffExpr, equality: bool = False):
        object.__setattr__(self, "expr", _normalize(expr, equality))
        object.__setattr__(self, "equality", bool(equality))

    def __setattr__(self, *a):
        raise AttributeError("Constraint is immutable")

    @property
    def space(self) -> Space:
        return self.expr.space

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.expr.coeffs

    def coeff_of(self, name: str) -> int:
        return self.expr.coeff_of(name)

    def is_satisfied(self, values: Mapping[str, int]) -> bool:
        v = self.expr.evaluate(values)
        return v == 0 if self.equality else v >= 0

    def is_trivial(self) -> bool:
        """True for ``c >= 0`` with ``c >= 0``, or ``0 == 0``."""
        if not self.expr.is_constant():
            return False
        c = self.expr.const_term
        return c == 0 if self.equality else c >= 0

    def is_contradiction(self) -> bool:
        """True for ``c >= 0`` with ``c < 0``, or ``c == 0`` with ``c != 0``."""
        if not self.expr.is_constant():
            return False
        c = self.expr.const_term
        return c != 0 if self.equality else c < 0

    def rebase(self, target: Space, rename: Mapping[str, str] | None = None) -> "Constraint":
        return Constraint(self.expr.rebase(target, rename), self.equality)

    def negate(self) -> "Constraint":
        """The complementary half-space: ``expr >= 0``  ->  ``-expr - 1 >= 0``.

        Only meaningful for inequalities over integer points.
        """
        if self.equality:
            raise ValueError("cannot negate an equality into a single half-space")
        return Constraint(-self.expr - 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Constraint)
            and self.equality == other.equality
            and self.expr == other.expr
        )

    def __hash__(self) -> int:
        return hash((self.expr, self.equality))

    def __reduce__(self):
        # Immutable __slots__ class (see AffExpr.__reduce__).
        return (Constraint, (self.expr, self.equality))

    def __str__(self) -> str:
        op = "==" if self.equality else ">="
        return f"{self.expr} {op} 0"

    __repr__ = __str__


def _normalize(expr: AffExpr, equality: bool) -> AffExpr:
    """GCD-normalize; for inequalities, tighten the constant by floor division
    (:func:`~repro.polyhedra.fourier_motzkin.normalize_row`'s rule)."""
    coeffs = _gcd_normalize(expr.coeffs, equality)
    return expr if coeffs is expr.coeffs else _make(expr.space, coeffs)


def ineq(space: Space, terms: Mapping[str, int], const: int = 0) -> Constraint:
    """``terms . x + const >= 0``."""
    return Constraint(AffExpr.from_terms(space, terms, const))


def eq(space: Space, terms: Mapping[str, int], const: int = 0) -> Constraint:
    """``terms . x + const == 0``."""
    return Constraint(AffExpr.from_terms(space, terms, const), equality=True)
