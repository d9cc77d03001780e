"""Polyhedral intermediate representation: programs, statements, accesses.

This is what the pet front end produces in the paper's toolchain: per
statement an index set (domain), affine access functions for every read and
write, the original schedule in 2d+1 interleaving form, and an executable
body used by the validation runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

from repro.polyhedra import AffExpr, AffineMap, BasicSet, Space

__all__ = ["Access", "Statement", "Program", "SchedDim"]

# One level of the original 2d+1 schedule: either a scalar position or an
# iterator expression.
SchedDim = Union[int, AffExpr]


@dataclass
class Access:
    """An affine array access ``array[map(i)]``, optionally guarded.

    ``guard`` restricts the statement instances that perform this access —
    used to model wraparound (periodic) accesses such as
    ``A[i+1 == N ? 0 : i+1]``, which becomes two guarded accesses:
    ``A[i+1]`` on ``i <= N-2`` and ``A[0]`` on ``i == N-1``.  Exactly the
    long-dependence pattern of Section 2.4.
    """

    array: str
    map: AffineMap
    guard: Optional[BasicSet] = None

    @property
    def arity(self) -> int:
        return self.map.n_out

    def __str__(self) -> str:
        g = f" if {self.guard}" if self.guard is not None else ""
        return f"{self.array}{self.map}{g}"


@dataclass
class Statement:
    """A statement with its index set, accesses, and original schedule."""

    name: str
    domain: BasicSet
    reads: list[Access] = field(default_factory=list)
    writes: list[Access] = field(default_factory=list)
    body: str = ""                 # executable Python (numpy) statement
    sched: list[SchedDim] = field(default_factory=list)  # 2d+1 interleaving
    #: the statement this one was cut from by index-set splitting (itself if
    #: it came through uncut); in-process bookkeeping for dependence analysis
    #: (``Program.live_candidates``): not compared, not serialized
    origin: Optional[str] = field(default=None, compare=False, repr=False)

    @property
    def space(self) -> Space:
        return self.domain.space

    @property
    def iters(self) -> tuple[str, ...]:
        return self.space.dims

    @property
    def dim(self) -> int:
        return len(self.space.dims)

    def read_arrays(self) -> set[str]:
        return {a.array for a in self.reads}

    def write_arrays(self) -> set[str]:
        return {a.array for a in self.writes}

    def __str__(self) -> str:
        return f"{self.name}: {self.body} over {self.domain}"


class Program:
    """A static control program: parameters, statements, and a context.

    ``context`` constrains the parameters (e.g. ``N >= 2``); it participates
    in every emptiness/satisfaction query so that dependences that only exist
    for degenerate sizes do not pollute scheduling.
    """

    #: set by index-set splitting: the dependence candidates ``(source
    #: origin, target origin, access pair, happens-before case)`` that were
    #: non-empty before the split.  A piece keeps its origin's accesses and
    #: ``sched`` and a subset of its domain, so every other candidate between
    #: pieces is empty without being tested.  Like ``Statement.origin``, not
    #: compared and not serialized.
    live_candidates: Optional[frozenset] = None

    def __init__(
        self,
        name: str,
        params: Sequence[str] = (),
        param_min: Mapping[str, int] | int = 2,
    ):
        self.name = name
        self.params = tuple(params)
        self.statements: list[Statement] = []
        if isinstance(param_min, int):
            self.param_min = {p: param_min for p in self.params}
        else:
            self.param_min = {p: param_min.get(p, 2) for p in self.params}

    # -- construction ----------------------------------------------------------

    def space_for(self, iters: Sequence[str]) -> Space:
        return Space(tuple(iters), self.params)

    def add_statement(self, stmt: Statement) -> Statement:
        if any(s.name == stmt.name for s in self.statements):
            raise ValueError(f"duplicate statement name {stmt.name!r}")
        self.statements.append(stmt)
        return stmt

    # -- queries ------------------------------------------------------------------

    def statement(self, name: str) -> Statement:
        for s in self.statements:
            if s.name == name:
                return s
        raise KeyError(f"no statement named {name!r}")

    def arrays(self) -> set[str]:
        out: set[str] = set()
        for s in self.statements:
            out |= s.read_arrays() | s.write_arrays()
        return out

    def context_constraints(self, space: Space) -> list:
        """Parameter context (``p >= param_min[p]``) rebased into ``space``."""
        from repro.polyhedra import ineq

        return [
            ineq(space, {p: 1}, -self.param_min[p])
            for p in self.params
            if p in space.params
        ]

    def max_depth(self) -> int:
        return max((s.dim for s in self.statements), default=0)

    def __iter__(self):
        return iter(self.statements)

    def __len__(self) -> int:
        return len(self.statements)

    def __eq__(self, other) -> bool:
        """Structural equality (used by serialization round-trip checks)."""
        return (
            isinstance(other, Program)
            and self.name == other.name
            and self.params == other.params
            and self.param_min == other.param_min
            and self.statements == other.statements
        )

    # Name-based hash: consistent with __eq__ (equal programs share a name)
    # while keeping Program usable in identity-flavored dicts.
    def __hash__(self) -> int:
        return hash(self.name)

    def __str__(self) -> str:
        lines = [f"program {self.name}({', '.join(self.params)}):"]
        lines += [f"  {s}" for s in self.statements]
        return "\n".join(lines)
