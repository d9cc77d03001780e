"""Band tiling: rectangular tiles over permutable bands.

Tiling a band of ``k`` permutable levels inserts ``k`` *tile* dimensions
immediately before the band; tile dimension ``T`` for level expression
``phi`` satisfies ``ts*T <= phi <= ts*T + ts - 1``.  Because every level in
the band has non-negative dependence components (the scheduler construction),
executing tiles atomically in lexicographic order is legal — the classic
validity argument of the Pluto paper.

**Tile space and point space.**  The tile rows decide which tile an
iteration belongs to and in which order tiles run; the point rows only
order the iterations *inside* one tile.  The two need not be the same
hyperplanes.  On a ``concurrent_start`` (diamond) band they are not: the
tile rows keep ``floor(h_k / ts)`` over the diamond hyperplanes ``t ± i``,
and the point rows are the program's *source order*
(:func:`original_schedule`).  That is legal by the definition of a
dependence — its source runs before its target in source order — as long as
tiles run atomically, which the tile rows' non-negativity guarantees; it
needs no solve, and it replaces a determinant-2/3 map (a lattice of density
1/2–1/3, a divisibility test per scan point, stride 2–3 through memory) by
the identity on the iterators.  See :func:`tile_schedule` for when a band
keeps its hyperplanes as point rows instead.

The result is a :class:`TiledSchedule` whose rows extend the base schedule
rows with ``kind == "tile"`` entries; the code generator scans them exactly
like loop rows but with inequality (rather than equality) binding
constraints.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.transform import (
    Band,
    Schedule,
    ScheduleRow,
    exprs_from_dict,
    rows_to_dicts,
)
from repro.deps.analysis import product_domain
from repro.frontend.ir import Program, Statement
from repro.polyhedra import AffExpr, Constraint

__all__ = [
    "DEFAULT_TILE_SIZE",
    "TiledRow",
    "TiledSchedule",
    "distributes",
    "l2_tile_schedule",
    "optimize_intra_tile",
    "original_schedule",
    "tile_schedule",
    "untiled_schedule",
]

DEFAULT_TILE_SIZE = 32


@dataclass
class TiledRow:
    """One dimension of the final scanning order.

    ``kind``: ``"loop"`` (equality ``z == phi``), ``"scalar"`` (constant), or
    ``"tile"`` (``ts*z <= phi <= ts*z + ts - 1``).  ``parallel`` flags carry
    over from hyperplane properties scheduler-side; tile rows are always
    sequential (see :func:`tile_schedule` — a hyperplane that carries no
    dependence pointwise can still be carried at tile granularity).
    """

    kind: str
    exprs: dict[str, object]       # stmt name -> AffExpr
    tile_size: Optional[int] = None
    parallel: Optional[bool] = None
    band_role: str = ""            # "tile" | "point" | "" for bookkeeping
    #: relaxed-reduction tags carried over from the source ScheduleRow
    #: (None unless parallel_reductions is enabled; see ScheduleRow)
    reduction: Optional[list] = None

    def expr_for(self, stmt) -> object:
        name = stmt if isinstance(stmt, str) else stmt.name
        return self.exprs[name]


@dataclass
class TiledSchedule:
    """The scanning order handed to the code generator."""

    program: Program
    rows: list[TiledRow] = field(default_factory=list)
    bands: list[Band] = field(default_factory=list)     # over *row* indices
    source_schedule: Optional[Schedule] = None

    @property
    def depth(self) -> int:
        return len(self.rows)

    def parallel_levels(self) -> list[int]:
        return [i for i, r in enumerate(self.rows) if r.parallel]

    def tile_levels(self) -> list[int]:
        return [i for i, r in enumerate(self.rows) if r.kind == "tile"]

    def reduction_levels(self) -> list[int]:
        """Row indices whose parallelism rests on reduction relaxation."""
        return [i for i, r in enumerate(self.rows) if r.reduction]

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable form, built like :meth:`Schedule.to_dict`."""
        return {
            "program": self.program.name,
            "rows": rows_to_dicts(
                self.rows, ("kind", "tile_size", "parallel", "band_role")
            ),
            "bands": [dataclasses.asdict(b) for b in self.bands],
            "source_schedule": (
                None
                if self.source_schedule is None
                else self.source_schedule.to_dict()
            ),
        }

    @classmethod
    def from_dict(cls, program: Program, data: dict) -> "TiledSchedule":
        """Rebuild a tiled schedule exported by :meth:`to_dict`."""
        if data.get("program") != program.name:
            raise ValueError(
                f"tiled schedule was exported for {data.get('program')!r}, "
                f"not {program.name!r}"
            )
        out = cls(program)
        for rd in data["rows"]:
            out.rows.append(
                TiledRow(
                    rd["kind"],
                    exprs_from_dict(program, rd["exprs"]),
                    tile_size=rd["tile_size"],
                    parallel=rd["parallel"],
                    band_role=rd["band_role"],
                    reduction=rd.get("reduction"),
                )
            )
        out.bands = [
            Band(b["start"], b["end"], b["permutable"], b["concurrent_start"])
            for b in data.get("bands", [])
        ]
        src = data.get("source_schedule")
        if src is not None:
            out.source_schedule = Schedule.from_dict(program, src)
        return out


def _as_tiled_row(row: ScheduleRow) -> TiledRow:
    return TiledRow(
        row.kind,
        dict(row.exprs),
        parallel=row.parallel,
        reduction=getattr(row, "reduction", None),
    )


def original_schedule(program: Program) -> TiledSchedule:
    """The program's source order as a scannable schedule.

    2d+1 schedules alternate scalar and loop levels uniformly across
    statements; shorter statements are padded with constant zeros of the
    level's kind.  Rendered directly it is the reference side of the
    validation harness and the "code icc compiles" side of the performance
    comparison; :func:`tile_schedule` uses its rows as the point space of a
    diamond band.
    """
    depth = max((len(s.sched) for s in program.statements), default=0)
    out = TiledSchedule(program)
    for level in range(depth):
        kinds = set()
        exprs: dict[str, AffExpr] = {}
        for s in program.statements:
            if level < len(s.sched):
                entry = s.sched[level]
                if isinstance(entry, int):
                    kinds.add("scalar")
                    exprs[s.name] = AffExpr.const(s.space, entry)
                else:
                    kinds.add("loop")
                    exprs[s.name] = entry
            else:
                exprs[s.name] = AffExpr.const(s.space, 0)
        if not kinds:
            kind = "scalar"
        elif len(kinds) > 1:
            raise ValueError(
                f"inconsistent 2d+1 schedules at level {level} of {program.name}"
            )
        else:
            kind = kinds.pop()
        out.rows.append(TiledRow(kind, exprs))
    return out


def distributes(
    program: Program,
    rows: Sequence[TiledRow],
    level: int,
    body: Sequence[Statement],
) -> bool:
    """Whether the loop at ``level`` over ``body`` — the statements sharing
    it, in the order they run at one scan point — may run as one loop per
    statement instead of one loop over the union of their ranges.

    Distribution runs every instance of an earlier statement before every
    instance of a later one, so it preserves the execution order iff for each
    pair ``a`` before ``b`` no instance of ``b`` lies strictly below an
    instance of ``a`` on ``level`` while the two agree on every enclosing
    loop row: one emptiness question per pair over the product of their
    domains.  (Tile rows are left out — instances of one tile agree on them,
    so the set asked about only grows.)  It is asked of index-set-split
    programs only, recognised by two statements sharing a source position:
    there the pieces of a statement sit half a domain apart, the union loop
    would test every piece at every point of the hull, and the cut itself
    is what proves the order.  Any other program keeps its union loop
    unasked, so its emitted source cannot move.
    """
    if len(body) < 2:
        return True
    if len({tuple(s.sched) for s in program.statements}) == len(program.statements):
        return False
    return all(
        _keeps_order(program, rows, level, a, b)
        for a, b in itertools.combinations(body, 2)
    )


def _keeps_order(
    program: Program, rows: Sequence[TiledRow], level: int, a: Statement, b: Statement
) -> bool:
    """No instance of ``b`` strictly below one of ``a`` on ``rows[level]``
    where they agree on the loop rows above it."""
    pairs, ra, rb = product_domain(program, a, b)
    space = pairs.space
    for row in rows[: level + 1]:
        if row.kind != "loop":
            continue
        ahead = row.expr_for(a).rebase(space, ra) - row.expr_for(b).rebase(space, rb)
        if row is rows[level]:
            pairs.add(Constraint(ahead - 1))
        else:
            pairs.add(Constraint(ahead, equality=True))
    return pairs.is_empty()


def _source_point_rows(
    sched: Schedule, band: Band, outer: list[TiledRow]
) -> Optional[list[TiledRow]]:
    """Source-order point rows for a diamond band below the rows ``outer``,
    or ``None`` where the band keeps its hyperplanes (:func:`tile_schedule`)."""
    if not band.concurrent_start:
        return None
    if any(r.kind != "scalar" for r in sched.rows[band.end + 1:]):
        return None
    program = sched.program
    rows = [
        dataclasses.replace(r, parallel=False, band_role="point")
        for r in original_schedule(program).rows
        # a scalar level every statement agrees on orders nothing
        if r.kind == "loop" or len({e.const_term for e in r.exprs.values()}) > 1
    ]
    scan = outer + rows
    inner = max(l for l, r in enumerate(scan) if r.kind != "scalar")

    def scalars(s: Statement, part: list[TiledRow]) -> list[int]:
        return [r.expr_for(s).const_term for r in part if r.kind == "scalar"]

    # the loop tree's grouping: statements share the innermost loop when the
    # scalar levels above it agree, and run there in trailing-scalar order
    bodies: dict[tuple, list[Statement]] = {}
    for s in sorted(program.statements, key=lambda s: scalars(s, scan[inner:])):
        bodies.setdefault(tuple(scalars(s, scan[:inner])), []).append(s)
    if all(distributes(program, scan, inner, body) for body in bodies.values()):
        return rows
    return None


def tile_schedule(
    sched: Schedule,
    tile_size: int | dict[int, int] = DEFAULT_TILE_SIZE,
    min_band_width: int = 2,
) -> TiledSchedule:
    """Tile every permutable band of width >= ``min_band_width``.

    ``tile_size`` may be a single size or a per-band mapping (band index ->
    size).  Tile dimensions are never marked parallel — not even for
    ``concurrent_start`` (diamond) bands.  A diamond band's hyperplanes are
    each non-negative on every dependence, but neither is carried-free at
    tile granularity: a dependence can advance ``h1`` across a tile
    boundary while ``floor((h1+h2)/ts)`` stays put, so annotating the
    first tile loop parallel races under real threads (caught by the
    bit-compat check across 1/2/4 threads).  True concurrent start needs a
    wavefront over the *tile indices* (``z1+z2`` sequential, ``z1``
    parallel), which the scan cannot express yet — the band keeps its
    ``concurrent_start`` flag for the analytic machine layer.

    A ``concurrent_start`` band's point rows are the program's source order
    (module docstring), sequential, and replace every row from the band's
    first point row on — which is why the band must be the schedule's last
    loop rows.  Two halves of one decision: in iterator space the pieces of
    an index-set-split statement sit half a domain apart, so the innermost
    loop must run once per piece (:func:`distributes`; over the union of the
    pieces' ranges it was measured 65x slower than the hyperplane rows);
    the band is re-based only if that holds, and keeps its hyperplanes as
    point rows — like every other band, with whatever parallel marks the
    scheduler proved — if not.
    """
    out = TiledSchedule(sched.program, source_schedule=sched)
    sizes = tile_size if isinstance(tile_size, dict) else None

    bands_sorted = sorted(sched.bands, key=lambda b: b.start)
    band_iter = iter(bands_sorted)
    next_band = next(band_iter, None)
    level = 0
    band_counter = 0
    while level < sched.depth:
        if (
            next_band is not None
            and level == next_band.start
            and next_band.permutable
            and next_band.width >= min_band_width
        ):
            ts = (
                sizes.get(band_counter, DEFAULT_TILE_SIZE)
                if sizes is not None
                else tile_size
            )
            tile_start = len(out.rows)
            for lv in next_band.levels():
                src = sched.rows[lv]
                out.rows.append(
                    TiledRow(
                        "tile",
                        dict(src.exprs),
                        tile_size=ts,
                        parallel=False,
                        band_role="tile",
                    )
                )
            point_start = len(out.rows)
            out.bands.append(
                Band(
                    tile_start,
                    point_start - 1,
                    permutable=True,
                    concurrent_start=next_band.concurrent_start,
                )
            )
            source = _source_point_rows(sched, next_band, out.rows)
            if source is not None:
                # source order is one fixed order, not a permutable band
                out.rows.extend(source)
                out.bands.append(Band(point_start, len(out.rows) - 1, permutable=False))
                break
            for lv in next_band.levels():
                r = _as_tiled_row(sched.rows[lv])
                r.band_role = "point"
                out.rows.append(r)
            out.bands.append(
                Band(
                    point_start,
                    len(out.rows) - 1,
                    permutable=True,
                    concurrent_start=next_band.concurrent_start,
                )
            )
            level = next_band.end + 1
            next_band = next(band_iter, None)
            band_counter += 1
            continue
        if next_band is not None and level == next_band.start:
            # untiled band (too narrow): copy rows through
            start = len(out.rows)
            for lv in next_band.levels():
                out.rows.append(_as_tiled_row(sched.rows[lv]))
            out.bands.append(
                Band(start, len(out.rows) - 1, permutable=next_band.permutable)
            )
            level = next_band.end + 1
            next_band = next(band_iter, None)
            band_counter += 1
            continue
        out.rows.append(_as_tiled_row(sched.rows[level]))
        level += 1
    return out


def untiled_schedule(sched: Schedule) -> TiledSchedule:
    """A :class:`TiledSchedule` that simply mirrors ``sched`` (no tiling)."""
    out = TiledSchedule(sched.program, source_schedule=sched)
    out.rows = [_as_tiled_row(r) for r in sched.rows]
    out.bands = [
        Band(b.start, b.end, b.permutable, b.concurrent_start)
        for b in sched.bands
    ]
    return out


def l2_tile_schedule(tsched: TiledSchedule, ratio: int = 8) -> TiledSchedule:
    """Second-level tiling (Pluto's ``--l2tile``): wrap every first-level
    tile band in an outer band of tiles ``ratio`` times larger.

    The L2 tile dimension for a tile row with size ``ts`` satisfies
    ``ts*ratio*Z <= phi <= ts*ratio*Z + ts*ratio - 1`` — the same inequality
    shape the code generator already scans, so no new machinery is needed.
    """
    if ratio < 2:
        raise ValueError("l2 ratio must be >= 2")
    out = TiledSchedule(tsched.program, source_schedule=tsched.source_schedule)
    i = 0
    while i < len(tsched.rows):
        row = tsched.rows[i]
        band = next(
            (b for b in tsched.bands if b.start == i and tsched.rows[b.start].kind == "tile"
             and all(tsched.rows[l].kind == "tile" for l in b.levels())),
            None,
        )
        if band is None:
            out.rows.append(row)
            i += 1
            continue
        l2_start = len(out.rows)
        for lv in band.levels():
            src = tsched.rows[lv]
            out.rows.append(
                TiledRow(
                    "tile",
                    dict(src.exprs),
                    tile_size=src.tile_size * ratio,
                    parallel=src.parallel,
                    band_role="l2-tile",
                )
            )
        out.bands.append(
            Band(l2_start, len(out.rows) - 1, permutable=True,
                 concurrent_start=band.concurrent_start)
        )
        l1_start = len(out.rows)
        for lv in band.levels():
            out.rows.append(tsched.rows[lv])
        out.bands.append(
            Band(l1_start, len(out.rows) - 1, permutable=True,
                 concurrent_start=band.concurrent_start)
        )
        i = band.end + 1
    # copy through the remaining (non-tile) bands with shifted indices
    offset = len(out.rows) - len(tsched.rows)
    for b in tsched.bands:
        if tsched.rows[b.start].kind != "tile":
            out.bands.append(
                Band(b.start + offset, b.end + offset, b.permutable, b.concurrent_start)
            )
    return out


def optimize_intra_tile(tsched: TiledSchedule) -> TiledSchedule:
    """Post-transformation intra-tile optimization (the paper's "Misc" pass):
    within each permutable *point* band, rotate a parallel level innermost so
    the innermost loop vectorizes.  Permutability makes any order legal.
    """
    out = TiledSchedule(tsched.program, source_schedule=tsched.source_schedule)
    out.rows = list(tsched.rows)
    out.bands = [
        Band(b.start, b.end, b.permutable, b.concurrent_start)
        for b in tsched.bands
    ]
    for band in out.bands:
        if not band.permutable or band.width < 2:
            continue
        levels = list(band.levels())
        if any(out.rows[l].kind != "loop" for l in levels):
            continue
        innermost = levels[-1]
        if out.rows[innermost].parallel:
            continue
        parallel = [l for l in levels if out.rows[l].parallel]
        if not parallel:
            continue
        chosen = parallel[-1]
        row = out.rows.pop(chosen)
        out.rows.insert(innermost, row)
    return out
