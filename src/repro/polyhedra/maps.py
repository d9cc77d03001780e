"""Multi-dimensional affine functions (access functions and transformations).

An :class:`AffineMap` is a tuple of :class:`AffExpr` over one domain space —
exactly the ``T(i) = M.i + m0`` form of Section 2.1, with parameter and
constant columns included (so parametric shifts are first-class, as Pluto+
requires).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.linalg import FMatrix
from repro.polyhedra.affine import AffExpr, Space

__all__ = ["AffineMap"]


class AffineMap:
    """``f : domain -> Z^n`` given by one affine expression per output dim."""

    def __init__(self, domain: Space, exprs: Sequence[AffExpr]):
        for e in exprs:
            if e.space != domain:
                raise ValueError("all output expressions must live in the domain space")
        self.domain = domain
        self.exprs = tuple(exprs)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def identity(cls, domain: Space) -> "AffineMap":
        return cls(domain, [AffExpr.var(domain, d) for d in domain.dims])

    @classmethod
    def from_terms(
        cls,
        domain: Space,
        rows: Iterable[tuple[Mapping[str, int], int]],
    ) -> "AffineMap":
        return cls(
            domain,
            [AffExpr.from_terms(domain, terms, const) for terms, const in rows],
        )

    # -- accessors ----------------------------------------------------------------

    @property
    def n_out(self) -> int:
        return len(self.exprs)

    def dim_matrix(self) -> list[list[int]]:
        """The ``M`` matrix restricted to iterator columns (no params/const)."""
        return [
            [e.coeff_of(d) for d in self.domain.dims] for e in self.exprs
        ]

    def apply(self, values: Mapping[str, int]) -> tuple[int, ...]:
        return tuple(e.evaluate(values) for e in self.exprs)

    def rank(self) -> int:
        m = self.dim_matrix()
        if not m:
            return 0
        return FMatrix(m).rank()

    def is_one_to_one(self) -> bool:
        """Full column rank on iterator columns => injective on the index set."""
        return self.rank() == len(self.domain.dims)

    def append(self, expr: AffExpr) -> "AffineMap":
        return AffineMap(self.domain, list(self.exprs) + [expr])

    def concat(self, other: "AffineMap") -> "AffineMap":
        if other.domain != self.domain:
            raise ValueError("domain mismatch in concat")
        return AffineMap(self.domain, list(self.exprs) + list(other.exprs))

    def compose_unimodular(self, mat: Sequence[Sequence[int]]) -> "AffineMap":
        """Left-compose with an integer matrix: ``g = mat . f`` (row combos)."""
        new = []
        for row in mat:
            if len(row) != self.n_out:
                raise ValueError("matrix width must equal n_out")
            acc = AffExpr.zero(self.domain)
            for k, e in zip(row, self.exprs):
                acc = acc + e * int(k)
            new.append(acc)
        return AffineMap(self.domain, new)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AffineMap)
            and self.domain == other.domain
            and self.exprs == other.exprs
        )

    def __getitem__(self, i: int) -> AffExpr:
        return self.exprs[i]

    def __len__(self) -> int:
        return len(self.exprs)

    def __iter__(self):
        return iter(self.exprs)

    def __str__(self) -> str:
        return f"({', '.join(str(e) for e in self.exprs)})"

    __repr__ = __str__
