"""The loop tree: one scanning structure, built once, rendered two ways.

:func:`build_loop_tree` turns a tiled schedule into nested :class:`Loop` /
:class:`Let` nodes over the scan dimensions with :class:`Instance` leaves.
Outer loops scan the union of their statements' Fourier–Motzkin hulls.  The
innermost loop level carries no hull: each instance brings the exact range
of its statement on that dimension (``ScanSystem.image_bounds``) and, where
the enclosing loops are shared with other statements, a guard over the
outer dimensions — both hoisted out of the loop by the renderer — so the
only per-point work is a divisibility test on non-unimodular schedules and
``it = num / den``.  Where the statements of an innermost loop provably run
one after the other (:func:`repro.core.tiling.distributes`: the pieces of an
index-set-split statement, whose ranges the cut keeps apart) the loop is
*distributed*: one loop per statement over its own range, no per-point range
test, the same execution order.  Every emission decision that is not syntax
lives on the nodes: where an OpenMP region opens, how a relaxed reduction is
discharged (privatized fold / atomic update), whether instances trace.

OpenMP placement: one region per nest, on its outermost parallel row —
a tile row where :func:`repro.core.tiling.tile_schedule` marks one — and
never on the innermost row of a tiled band (<= tile_size iterations of O(1)
work).  A tile-index wavefront is built from the same nodes: a
:class:`Region` around the sequential ``w`` loop, which every thread runs,
the workshared loop of the tile row below it, whose barrier separates one
wavefront from the next, and a :class:`Let` pinning the last tile index to
``w`` minus that one.  Python scans the same order.

:class:`TreeRenderer` walks the tree once; the Python and C-kernel
renderers supply syntax and the statement body.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import gcd
from typing import Optional

from repro.codegen.emit_common import (
    merge_bounds,
    render_expr,
    render_lower,
    render_upper,
)
from repro.codegen.scan import Bound, build_scan_systems, z_name
from repro.core.reductions import ReductionSplit, reduction_split
from repro.core.tiling import TiledSchedule, distributes
from repro.frontend.ir import Statement
from repro.polyhedra import AffExpr, Constraint

__all__ = ["Instance", "Let", "Loop", "Region", "TreeRenderer", "build_loop_tree"]


@dataclass
class Instance:
    """One statement executed at the current scan point."""

    stmt: Statement
    nums: list[AffExpr]            # iterator k is nums[k] / dens[k] ...
    dens: list[int]
    tests: list[tuple[AffExpr, int]]    # ... exact where expr % den == 0
    lowers: list[Bound]            # exact range on the enclosing loop's dim
    uppers: list[Bound]
    guard: list[Constraint]        # over the outer scan dims only
    #: discharge of a relaxed reduction: fold ``split.update`` into ``acc``,
    #: or (``acc`` None) update ``split.target`` atomically
    split: Optional[ReductionSplit] = None
    acc: Optional[str] = None
    trace: bool = False


@dataclass
class Let:
    """A scan dimension pinned to ``value`` around ``body``: a scalar
    level's constant, or a wavefront's last tile index (source text)."""

    level: int
    value: int | str
    body: list


@dataclass
class Loop:
    level: int
    #: hull ``(lowers, uppers)`` per scanned statement; empty on an innermost
    #: loop, whose body is the instances that carry their own ranges
    bounds: list
    parallel: bool
    reduction: Optional[list]      # the row's relaxed-reduction tags
    pragma: bool = False           # an OpenMP region opens here
    fold: Optional[tuple[str, ReductionSplit]] = None   # privatized partial sum
    body: list = field(default_factory=list)
    workshare: bool = False        # shares the enclosing :class:`Region`


@dataclass
class Region:
    """Loops in one OpenMP region: the pieces a parallel loop was
    distributed into, each workshared, the barrier between them keeping
    their order; or a wavefront's ``w`` loop, which every thread runs."""

    body: list[Loop]


def _divisibility(nums: list[AffExpr], dens: list[int]) -> list[tuple[AffExpr, int]]:
    """The distinct tests ``expr % den == 0`` that make every quotient exact.

    Coefficients are reduced mod ``den`` and scaled to a leading 1 where the
    leading one is a unit, so the equivalent tests a diamond map produces
    (one per iterator) collapse to one."""
    tests: list[tuple[AffExpr, int]] = []
    for num, den in zip(nums, dens):
        coeffs = [c % den for c in num.coeffs]
        lead = next((c for c in coeffs if c), 0)
        if lead and gcd(lead, den) == 1:
            unit = pow(lead, -1, den)
            coeffs = [c * unit % den for c in coeffs]
        test = (AffExpr(num.space, coeffs), den)
        if lead and test not in tests:
            tests.append(test)
    return tests


def build_loop_tree(tsched: TiledSchedule, trace: bool = False) -> list:
    rows = tsched.rows
    systems = {s.stmt.name: s for s in build_scan_systems(tsched)}
    inner = max((l for l, r in enumerate(rows) if r.kind != "scalar"), default=-1)

    def instance(s: Statement, shared: bool, discharged: dict) -> Instance:
        sys = systems[s.name]
        lowers, uppers, guard = [], [], []
        if inner >= 0:
            lowers, uppers = sys.image_bounds(inner)
            if not lowers or not uppers:
                raise RuntimeError(f"unbounded scan dimension z{inner} for {s.name}")
        if shared:
            # the enclosing loops scan a union, so the statement's own
            # constraints on the outer dims are re-checked (hoisted)
            outer = [z_name(l) for l in range(inner)]
            guard = [
                c for c in sys.image.constraints
                if not c.coeff_of(z_name(inner)) and any(c.coeff_of(z) for z in outer)
            ]
        split, acc = discharged.get(s.name, (None, None))
        tests = _divisibility(sys.nums, sys.dens)
        return Instance(
            s, sys.nums, sys.dens, tests, lowers, uppers, guard, split, acc, trace
        )

    def hull(level: int, stmts: list[Statement]) -> list:
        bounds = []
        for s in stmts:
            lo, up = systems[s.name].z_bounds(level)
            if not lo or not up:
                raise RuntimeError(f"unbounded scan dimension z{level} for {s.name}")
            bounds.append((lo, up))
        return bounds

    def emit_level(level, stmts, shared, par_depth, discharged) -> list:
        if level > inner:
            # only scalar levels remain: they order the instances
            tail = range(level, len(rows))
            stmts = sorted(
                stmts, key=lambda s: [rows[l].expr_for(s).const_term for l in tail]
            )
            return [instance(s, shared, discharged) for s in stmts]
        row = rows[level]
        if row.kind == "scalar":
            groups: dict[int, list[Statement]] = {}
            for s in stmts:
                groups.setdefault(row.expr_for(s).const_term, []).append(s)
            return [
                Let(level, v, emit_level(level + 1, groups[v], shared, par_depth, discharged))
                for v in sorted(groups)
            ]
        shared = shared or len(stmts) > 1
        if row.kind == "wavefront":
            # w = z_{l+1} + z_{l+2}: w in sequence, z_{l+1} in parallel
            w = Loop(level, hull(level, stmts), False, None)
            wave = Loop(level + 1, hull(level + 1, stmts), True, None, workshare=par_depth == 0)
            pinned = f"{z_name(level)} - {z_name(level + 1)}"
            wave.body = [Let(level + 2, pinned, emit_level(
                level + 3, stmts, shared, par_depth + 1, discharged
            ))]
            w.body = [wave]
            return [Region([w])] if wave.workshare else [w]
        loop = Loop(level, hull(level, stmts) if level < inner else [],
                    bool(row.parallel), row.reduction)
        if row.parallel and row.reduction:
            # The level is parallel only thanks to relaxed self-dependences;
            # they are discharged here or the loop stays sequential.  A
            # region opens only in "omp" mode and never inside another.
            may_open = row.reduction[0].get("mode") == "omp" and par_depth == 0
            tagged = {t["stmt"] for t in row.reduction}
            splits = {s.name: reduction_split(s.body) for s in stmts if s.name in tagged}
            s = stmts[0]
            if (
                len(stmts) == 1
                and splits.get(s.name)
                and s.name not in discharged
                and len(s.writes) == 1
                and not s.writes[0].map.exprs
            ):
                # one statement, scalar accumulator: a partial sum seeded
                # with the identity and combined into the cell after the loop
                loop.fold = (f"__red{level}", splits[s.name])
                loop.pragma = may_open
                discharged = {**discharged, s.name: (splits[s.name], loop.fold[0])}
            elif may_open and splits and all(splits.values()) and not (splits.keys() & discharged.keys()):
                loop.pragma = True
                discharged = {**discharged, **{n: (sp, None) for n, sp in splits.items()}}
        elif row.parallel:
            # outermost parallel row of a nest only, and not the innermost
            # row of a tiled band (<= tile_size iterations of O(1) work)
            loop.pragma = par_depth == 0 and not (level == inner and row.band_role == "point")
        loop.body = emit_level(level + 1, stmts, shared, par_depth + loop.pragma, discharged)
        if level == inner and len(loop.body) > 1 and distributes(
            tsched.program, rows, level, [inst.stmt for inst in loop.body]
        ):
            # one region for the nest, as before: its pieces workshare it
            pieces = [
                replace(loop, body=[inst], pragma=False, workshare=loop.pragma)
                for inst in loop.body
            ]
            return [Region(pieces)] if loop.pragma else pieces
        return [loop]

    return emit_level(0, list(tsched.program.statements), False, 0, {})


class TreeRenderer:
    """Walks a loop tree once; subclasses set the syntax and ``statement``."""

    lang = "py"
    indent = "    "
    int_t = ""
    AND, DIV = " and ", "//"
    EMPTY = ("1 << 62", "-(1 << 62)")      # (lower, upper) of an empty range
    DECL = "{name} = {expr}"
    PICK = "({a} if {g} else {b})"
    FOR = "for {z} in range({lb}, ({ub}) + 1):"
    IF = "if {c}:"
    CLOSE: Optional[str] = None

    def __init__(self) -> None:
        self.lines: list[str] = []

    def line(self, ind: int, text: str) -> None:
        self.lines.append(self.indent * ind + text)

    def close(self, ind: int) -> None:
        if self.CLOSE:
            self.line(ind, self.CLOSE)

    def declare(self, ind: int, name: str, expr: str) -> None:
        self.line(ind, self.DECL.format(name=name, expr=expr, int_t=self.int_t))

    def render(self, nodes: list, ind: int) -> None:
        for node in nodes:
            if isinstance(node, Instance):
                self.instance(node, ind, None)
            elif isinstance(node, Let):
                self.open_let(node, ind)
                self.render(node.body, ind + bool(self.CLOSE))
                self.close(ind)
            elif isinstance(node, Region):
                self.open_region(ind)
                self.render(node.body, ind + bool(self.CLOSE))
                self.close(ind)
            else:
                self.loop(node, ind)

    def open_let(self, node: Let, ind: int) -> None:
        self.declare(ind, z_name(node.level), str(node.value))

    def open_region(self, ind: int) -> None:
        pass

    def merge(self, bounds: list[Bound], outermost: str) -> str:
        render = render_lower if outermost == "max" else render_upper
        return merge_bounds([render(b, self.lang) for b in bounds], outermost, self.lang)

    def loop(self, node: Loop, ind: int) -> None:
        z = z_name(node.level)
        if node.bounds:
            lowers = [self.merge(lo, "max") for lo, _ in node.bounds]
            uppers = [self.merge(up, "min") for _, up in node.bounds]
        else:
            lowers, uppers = [], []
            shared = len(node.body) > 1
            for inst in node.body:
                ends = self.merge(inst.lowers, "max"), self.merge(inst.uppers, "min")
                if inst.guard:
                    g = f"on_{inst.stmt.name}"
                    self.declare(ind, g, self.AND.join(
                        f"{render_expr(c.expr)} {'==' if c.equality else '>='} 0"
                        for c in inst.guard
                    ))
                    ends = [self.PICK.format(g=g, a=a, b=b) for a, b in zip(ends, self.EMPTY)]
                if shared:
                    # per-point range tests follow: evaluate the ends once
                    names = [f"{end}_{inst.stmt.name}" for end in ("lb", "ub")]
                    for name, end in zip(names, ends):
                        self.declare(ind, name, end)
                    ends = names
                lowers.append(ends[0])
                uppers.append(ends[1])
        # the loop covers the union: min of the lower bounds, max of uppers
        lb = merge_bounds(lowers, "min", self.lang)
        ub = merge_bounds(uppers, "max", self.lang)
        self.open_loop(node, ind, self.FOR.format(z=z, lb=lb, ub=ub, int_t=self.int_t))
        if node.bounds:
            self.render(node.body, ind + 1)
        else:
            for inst in node.body:
                self.instance(inst, ind + 1, z if shared else None)
        self.close(ind)
        self.close_loop(node, ind)

    def open_loop(self, node: Loop, ind: int, header: str) -> None:
        self.line(ind, header)

    def close_loop(self, node: Loop, ind: int) -> None:
        pass

    def instance(self, inst: Instance, ind: int, z: Optional[str]) -> None:
        """``z`` names the enclosing loop's dim when the loop scans more than
        this instance's own range."""
        name = inst.stmt.name
        conds = [f"lb_{name} <= {z}{self.AND}{z} <= ub_{name}"] if z else []
        conds += [f"({render_expr(e)}) % {den} == 0" for e, den in inst.tests]
        if conds:
            self.line(ind, self.IF.format(c=self.AND.join(conds)))
            ind += 1
        for it, num, den in zip(inst.stmt.space.dims, inst.nums, inst.dens):
            expr = render_expr(num)
            self.declare(ind, it, expr if den == 1 else f"({expr}) {self.DIV} {den}")
        self.statement(inst, ind)
        if conds:
            self.close(ind - 1)

    def statement(self, inst: Instance, ind: int) -> None:
        raise NotImplementedError
