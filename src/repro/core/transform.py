"""Schedule containers: per-statement multi-dimensional affine transformations.

A :class:`Schedule` is a list of levels; each level holds one affine
expression per statement (a hyperplane found by the ILP, or a scalar ordering
dimension introduced by an SCC cut).  Bands group consecutive hyperplane
levels that are mutually permutable — the unit of tiling.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.frontend.ir import Program, Statement
from repro.linalg import FMatrix
from repro.polyhedra import AffExpr, AffineMap

__all__ = ["ScheduleRow", "Band", "Schedule"]


@dataclass
class ScheduleRow:
    """One schedule level.

    ``kind`` is ``"loop"`` for an ILP-found hyperplane and ``"scalar"`` for an
    SCC-ordering dimension.  ``exprs`` maps statement name to the level's
    affine expression over that statement's space (constant for scalars).
    ``parallel`` is filled by the property pass: True when the loop carries no
    dependence.  ``reduction`` (pipeline-filled, ``None`` unless
    ``parallel_reductions`` is enabled) lists the relaxed reduction
    dependences this level would otherwise carry, as
    ``{"stmt", "array", "op", "mode"}`` tags — the emitters use it to
    discharge the relaxation (privatized partial sums / ``reduction(..)``
    clauses).
    """

    kind: str
    exprs: dict[str, AffExpr]
    parallel: Optional[bool] = None
    reduction: Optional[list] = None

    def expr_for(self, stmt: Statement | str) -> AffExpr:
        name = stmt if isinstance(stmt, str) else stmt.name
        return self.exprs[name]

    def coeff_rows(self, stmt: Statement) -> list[int]:
        """Dimension coefficients (no params/const) for ``stmt``."""
        e = self.expr_for(stmt)
        return [e.coeff_of(d) for d in stmt.space.dims]

    def __str__(self) -> str:
        inner = ", ".join(f"{k}: {e}" for k, e in self.exprs.items())
        return f"[{self.kind}] {inner}"


def rows_to_dicts(rows, keys: tuple[str, ...]) -> list[dict]:
    """JSON form of schedule rows, shared by :class:`Schedule` and
    ``TiledSchedule``: the scalar fields ``keys`` in order, then ``exprs``
    as coefficient lists per statement.

    The "reduction" key appears only on tagged rows: schedules built with
    parallel_reductions off (every pre-reduction record) keep their exact
    historical byte shape.
    """
    out = []
    for row in rows:
        d = {k: getattr(row, k) for k in keys}
        d["exprs"] = {name: list(e.coeffs) for name, e in row.exprs.items()}
        if row.reduction:
            d["reduction"] = row.reduction
        out.append(d)
    return out


def exprs_from_dict(program: Program, data: dict) -> dict[str, AffExpr]:
    return {
        name: AffExpr(program.statement(name).space, coeffs)
        for name, coeffs in data.items()
    }


@dataclass
class Band:
    """A maximal set of consecutive, mutually permutable loop levels."""

    start: int                      # first level index (inclusive)
    end: int                        # last level index (inclusive)
    permutable: bool = True
    concurrent_start: bool = False  # diamond-tiled band (Section 2.4 / [2])

    @property
    def width(self) -> int:
        return self.end - self.start + 1

    def levels(self) -> range:
        return range(self.start, self.end + 1)

    def __str__(self) -> str:
        flags = "permutable" if self.permutable else "non-permutable"
        if self.concurrent_start:
            flags += ", concurrent-start"
        return f"band[{self.start}..{self.end}] ({flags})"


class Schedule:
    """The transformation computed for a program."""

    def __init__(self, program: Program):
        self.program = program
        self.rows: list[ScheduleRow] = []
        self.bands: list[Band] = []
        #: per-statement count of linearly independent hyperplanes found
        self.rank: dict[str, int] = {s.name: 0 for s in program.statements}
        #: band starts whose tiles may run as a wavefront (mark_parallelism)
        self.wavefronts: set[int] = set()

    # -- construction --------------------------------------------------------

    def add_row(self, row: ScheduleRow) -> None:
        self.rows.append(row)
        if row.kind != "loop":
            return
        for s in self.program.statements:
            if any(row.coeff_rows(s)):
                self.rank[s.name] = FMatrix(self.h_rows(s)).rank()

    def add_scalar_row(self, positions: dict[str, int]) -> None:
        exprs = {
            s.name: AffExpr.const(s.space, positions[s.name])
            for s in self.program.statements
        }
        self.rows.append(ScheduleRow("scalar", exprs))

    def finalize_order(self) -> None:
        """Append a final scalar dimension when distinct statements share an
        identical schedule prefix (the 2d+1 "beta" role), so code generation
        has a total order."""
        statements = self.program.statements
        maps = {
            tuple(tuple(row.expr_for(s).coeffs) for row in self.rows)
            for s in statements
        }
        if len(maps) < len(statements):
            self.add_scalar_row({s.name: i for i, s in enumerate(statements)})

    # -- queries -------------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self.rows)

    def loop_levels(self) -> list[int]:
        return [i for i, r in enumerate(self.rows) if r.kind == "loop"]

    def h_rows(self, stmt: Statement) -> list[list[int]]:
        """The ``H_S`` matrix: dimension-coefficient rows found so far."""
        out = []
        for row in self.rows:
            if row.kind != "loop":
                continue
            coeffs = row.coeff_rows(stmt)
            if any(coeffs):
                out.append(coeffs)
        return out

    def full_rank(self) -> bool:
        """Every statement's transformation is one-to-one."""
        return all(self.rank[s.name] >= s.dim for s in self.program.statements)

    def map_for(self, stmt: Statement | str) -> AffineMap:
        s = self.program.statement(stmt) if isinstance(stmt, str) else stmt
        return AffineMap(s.space, [row.expr_for(s) for row in self.rows])

    def band_at(self, level: int) -> Optional[Band]:
        for band in self.bands:
            if band.start <= level <= band.end:
                return band
        return None

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable form (coefficients per statement per level)."""
        return {
            "program": self.program.name,
            "rows": rows_to_dicts(self.rows, ("kind", "parallel")),
            "bands": [dataclasses.asdict(b) for b in self.bands],
        }

    @classmethod
    def from_dict(cls, program: Program, data: dict) -> "Schedule":
        """Rebuild a schedule exported by :meth:`to_dict` for ``program``."""
        if data.get("program") != program.name:
            raise ValueError(
                f"schedule was exported for {data.get('program')!r}, "
                f"not {program.name!r}"
            )
        sched = cls(program)
        for row_data in data["rows"]:
            row = ScheduleRow(
                row_data["kind"],
                exprs_from_dict(program, row_data["exprs"]),
                row_data.get("parallel"),
                reduction=row_data.get("reduction"),
            )
            sched.add_row(row)
        for b in data.get("bands", []):
            sched.bands.append(
                Band(b["start"], b["end"], b["permutable"], b["concurrent_start"])
            )
        return sched

    def __eq__(self, other) -> bool:
        """Structural equality: same program, rows, and bands.

        ``rank`` and ``wavefronts`` are derived bookkeeping, excluded."""
        return (
            isinstance(other, Schedule)
            and self.program == other.program
            and self.rows == other.rows
            and self.bands == other.bands
        )

    __hash__ = None

    def pretty(self) -> str:
        lines = [f"schedule for {self.program.name} (depth {self.depth}):"]
        for i, row in enumerate(self.rows):
            band = self.band_at(i)
            tag = ""
            if row.kind == "loop":
                tag = " parallel" if row.parallel else " sequential"
            if band and band.start == i and band.width > 1:
                tag += f"  <- {band}"
            lines.append(f"  t{i}: {row}{tag}")
        for s in self.program.statements:
            lines.append(f"  T_{s.name}{tuple(s.space.dims)} = {self.map_for(s)}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.pretty()
