"""Polyhedra scanning: per-statement scan systems, their inverse and image.

The generator (CLooG's role) scans the *image* of each statement's domain
under its transformation.  For a schedule of depth ``D`` a statement's scan
system lives in the space ``(z0..z_{D-1}, original iterators; params)`` with

* ``z_l == phi_l(iters)``                    for loop and scalar levels,
* ``ts*z_l <= phi_l(iters) <= ts*z_l+ts-1``  for tile levels,
* ``z_l == z_{l+1} + z_{l+2}``               for a wavefront level,

plus the original domain constraints.  Loop bounds for the outer ``z_l``
come from a Fourier–Motzkin projection onto ``z0..z_l``.  The original
iterators are not searched for: every schedule is injective per statement,
so the loop rows invert to ``it_k = nums[k] / dens[k]`` (affine in the scan
dims, exact where the scan point is in the image), and substituting that
into the system gives the statement's exact ``image`` in z-space without
any projection.  Non-unimodular transformations (diamond tiling's
determinant-2 and -3 maps) show up as ``dens[k] > 1``: a scan point belongs
to the statement only if every numerator is divisible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.tiling import TiledSchedule
from repro.frontend.ir import Statement
from repro.linalg.fraction_matrix import FMatrix, lcm
from repro.polyhedra import AffExpr, BasicSet, Constraint, Space

__all__ = [
    "Bound",
    "NonInjectiveScheduleError",
    "ScanSystem",
    "build_scan_systems",
    "z_name",
]


def z_name(level: int) -> str:
    return f"z{level}"


class NonInjectiveScheduleError(ValueError):
    """A statement's loop rows lack full column rank: two of its iterations
    share a scan point.  Every scheduler path emits injective schedules, so
    this is a scheduler bug, never an input error."""


@dataclass(frozen=True)
class Bound:
    """``var >= ceil(expr / div)`` or ``var <= floor(expr / div)``."""

    expr: AffExpr
    div: int


class ScanSystem:
    """Scan-space constraint system for one statement.

    ``nums``/``dens`` recover the statement's iterators from a scan point;
    ``image`` is the system with the iterators substituted away (scalar and
    wavefront levels dropped: the loop tree pins those by construction).
    """

    def __init__(self, stmt: Statement, tsched: TiledSchedule):
        self.stmt = stmt
        self.depth = tsched.depth
        z_dims = tuple(z_name(l) for l in range(self.depth))
        for it in stmt.space.dims:
            if it in z_dims:
                raise ValueError(
                    f"iterator name {it!r} collides with scan dimension names"
                )
        self.space = Space(z_dims + stmt.space.dims, stmt.space.params)
        phis = [
            None if row.kind == "wavefront" else row.expr_for(stmt).rebase(self.space)
            for row in tsched.rows
        ]
        self.nums, self.dens = self._invert(
            [(l, phi) for l, phi in enumerate(phis) if tsched.rows[l].kind == "loop"]
        )
        self.system = BasicSet(self.space)
        self.image = BasicSet(self.space)
        for con in stmt.domain.constraints:
            self._add(con.rebase(self.space))
        for l, (row, phi) in enumerate(zip(tsched.rows, phis)):
            z = AffExpr.var(self.space, z_name(l))
            if row.kind == "tile":
                ts = row.tile_size
                self._add(Constraint(phi - ts * z))             # phi >= ts*z
                self._add(Constraint(ts * z + (ts - 1) - phi))  # phi <= ts*z+ts-1
            elif row.kind == "loop":
                self._add(Constraint(z - phi, equality=True))
            elif row.kind == "wavefront":
                first, second = (AffExpr.var(self.space, z_name(l + k)) for k in (1, 2))
                self.system.add(Constraint(z - first - second, equality=True))
            else:
                self.system.add(Constraint(z - phi, equality=True))
        self._z_projections: list[BasicSet] | None = None

    def _add(self, con: Constraint) -> None:
        self.system.add(con)
        self.image.add(self._substitute(con))

    # -- inversion ----------------------------------------------------------

    def _invert(
        self, loop_rows: list[tuple[int, AffExpr]]
    ) -> tuple[list[AffExpr], list[int]]:
        """Solve the first ``n`` independent loop rows ``z_l == phi_l`` for
        the statement's ``n`` iterators (columns ``depth..depth+n``)."""
        first, n = self.depth, len(self.stmt.space.dims)
        coeffs = [list(phi.coeffs[first:first + n]) for _, phi in loop_rows]
        pivots = FMatrix(coeffs).transpose().rref()[1] if coeffs and n else []
        if len(pivots) < n:
            raise NonInjectiveScheduleError(
                f"schedule of {self.stmt.name} is not injective: loop rows "
                f"have rank {len(pivots)} over {n} iterators"
            )
        if not n:
            return [], []
        inverse = FMatrix([coeffs[p] for p in pivots]).inverse()
        # M . iters == z_p - (phi_p minus its iterator part), per chosen row
        rhs = []
        for p in pivots:
            level, phi = loop_rows[p]
            row = [-c for c in phi.coeffs]
            row[first:first + n] = [0] * n
            row[level] = 1
            rhs.append(row)
        nums, dens = [], []
        for k in range(n):
            weights = inverse.row(k)
            den = 1
            for f in weights:
                den = lcm(den, f.denominator)
            num = [0] * self.space.ncols
            for f, row in zip(weights, rhs):
                w = int(f * den)
                if w:
                    num = [a + w * b for a, b in zip(num, row)]
            nums.append(AffExpr(self.space, num))
            dens.append(den)
        return nums, dens

    def _substitute(self, con: Constraint) -> Constraint:
        """``con`` with every iterator replaced by its quotient, scaled to
        stay integral; sound for integer scan points, exact on the image."""
        first = self.depth  # iterator columns follow the scan dims
        used = [
            (k, c) for k, c in enumerate(con.coeffs[first:first + len(self.dens)]) if c
        ]
        scale = 1
        for k, _ in used:
            scale = lcm(scale, self.dens[k])
        out = [c * scale for c in con.coeffs]
        for k, c in used:
            out[first + k] = 0
            factor = c * scale // self.dens[k]
            for col, n in enumerate(self.nums[k].coeffs):
                out[col] += factor * n
        return Constraint(AffExpr(self.space, out), con.equality)

    # -- projections --------------------------------------------------------

    def _compute_z_projections(self) -> list[BasicSet]:
        """``R[l]`` = system projected onto ``z0..z_l`` (+ params): one chain
        that drops the iterators, then ``z_{D-1}, ..., z_1``; its last ``D``
        systems, the start included, are the levels innermost first."""
        inner = [z_name(l) for l in range(self.depth - 1, 0, -1)]
        chain = self.system.project_chain([*self.stmt.space.dims, *inner])
        return [self.system, *chain][: -self.depth - 1 : -1]

    def z_bounds(self, level: int) -> tuple[list[Bound], list[Bound]]:
        """(lower, upper) bounds for ``z_level`` over outer z's and params."""
        if self._z_projections is None:
            self._z_projections = self._compute_z_projections()
        return _as_bounds(self._z_projections[level], level)

    def image_bounds(self, level: int) -> tuple[list[Bound], list[Bound]]:
        """Exact (lower, upper) bounds of this statement on ``z_level``: the
        image constraints that mention it, over every other scan dim."""
        return _as_bounds(self.image, level)


def _as_bounds(bset: BasicSet, level: int) -> tuple[list[Bound], list[Bound]]:
    lowers, uppers = bset.bounds_for(z_name(level))
    return [Bound(e, k) for e, k in lowers], [Bound(e, k) for e, k in uppers]


def build_scan_systems(tsched: TiledSchedule) -> list[ScanSystem]:
    return [ScanSystem(s, tsched) for s in tsched.program.statements]
