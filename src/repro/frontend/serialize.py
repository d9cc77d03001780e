"""JSON-shaped (de)serialization of the polyhedral IR.

``OptimizationResult.to_json()`` and the suite runner's on-disk manifests
need the whole IR — programs, statements, accesses, sets, maps — as plain
JSON values.  The format is structural and version-tagged: every composite
carries the coordinate :class:`Space` it lives in, affine expressions are
raw coefficient lists (dims + params + constant, the same layout
:class:`AffExpr` stores), and constraints add an ``equality`` flag.

Round-trip guarantee: ``program_from_dict(program_to_dict(p)) == p`` under
the IR's structural equality.
"""

from __future__ import annotations

from typing import Mapping

from repro.frontend.ir import Access, Program, Statement
from repro.polyhedra import AffExpr, AffineMap, BasicSet, Constraint, Space

__all__ = [
    "IR_FORMAT_VERSION",
    "program_to_dict",
    "program_from_dict",
    "structural_program_dict",
    "space_to_dict",
    "space_from_dict",
    "basicset_to_dict",
    "basicset_from_dict",
    "affmap_to_dict",
    "affmap_from_dict",
]

#: bumped whenever the on-disk shape changes incompatibly; 2 dropped each
#: statement's C-like ``text``.  :func:`program_from_dict` reads this version
#: only.
IR_FORMAT_VERSION = 2


# -- spaces ------------------------------------------------------------------

def space_to_dict(space: Space) -> dict:
    return {"dims": list(space.dims), "params": list(space.params)}


def space_from_dict(data: Mapping) -> Space:
    return Space(tuple(data["dims"]), tuple(data["params"]))


# -- sets and maps -----------------------------------------------------------

def basicset_to_dict(bset: BasicSet) -> dict:
    return {
        "space": space_to_dict(bset.space),
        "constraints": [
            {"coeffs": list(c.coeffs), "equality": c.equality}
            for c in bset.constraints
        ],
    }


def basicset_from_dict(data: Mapping) -> BasicSet:
    space = space_from_dict(data["space"])
    return BasicSet(
        space,
        [
            Constraint(AffExpr(space, c["coeffs"]), c["equality"])
            for c in data["constraints"]
        ],
    )


def affmap_to_dict(amap: AffineMap) -> dict:
    return {
        "space": space_to_dict(amap.domain),
        "rows": [list(e.coeffs) for e in amap.exprs],
    }


def affmap_from_dict(data: Mapping) -> AffineMap:
    space = space_from_dict(data["space"])
    return AffineMap(space, [AffExpr(space, row) for row in data["rows"]])


# -- statements and programs -------------------------------------------------

def _access_to_dict(acc: Access) -> dict:
    return {
        "array": acc.array,
        "map": affmap_to_dict(acc.map),
        "guard": None if acc.guard is None else basicset_to_dict(acc.guard),
    }


def _access_from_dict(data: Mapping) -> Access:
    return Access(
        array=data["array"],
        map=affmap_from_dict(data["map"]),
        guard=None if data["guard"] is None else basicset_from_dict(data["guard"]),
    )


def _statement_to_dict(stmt: Statement) -> dict:
    sched = [
        {"const": d} if isinstance(d, int) else {"coeffs": list(d.coeffs)}
        for d in stmt.sched
    ]
    return {
        "name": stmt.name,
        "domain": basicset_to_dict(stmt.domain),
        "reads": [_access_to_dict(a) for a in stmt.reads],
        "writes": [_access_to_dict(a) for a in stmt.writes],
        "body": stmt.body,
        "sched": sched,
    }


def _statement_from_dict(data: Mapping) -> Statement:
    domain = basicset_from_dict(data["domain"])
    sched = [
        d["const"] if "const" in d else AffExpr(domain.space, d["coeffs"])
        for d in data["sched"]
    ]
    return Statement(
        name=data["name"],
        domain=domain,
        reads=[_access_from_dict(a) for a in data["reads"]],
        writes=[_access_from_dict(a) for a in data["writes"]],
        body=data["body"],
        sched=sched,
    )


def program_to_dict(program: Program) -> dict:
    return {
        "version": IR_FORMAT_VERSION,
        "name": program.name,
        "params": list(program.params),
        "param_min": dict(program.param_min),
        "statements": [_statement_to_dict(s) for s in program.statements],
    }


def structural_program_dict(data: Mapping) -> dict:
    """``program_to_dict`` output modulo parameter *values*.

    The program name and the ``param_min`` values are dropped (parameter
    *names* stay — they shape the coordinate spaces); statements keep
    their domains, accesses, bodies, and original schedules in full.  Two
    programs with equal structural dicts run the identical hyperplane
    search over the same dependence shapes, differing at most in the
    parameter lower bounds that enter the Farkas context rows — which is
    exactly the equivalence the cross-request skeleton store
    (:mod:`repro.core.skeleton`) keys on.
    """
    return {
        "version": data["version"],
        "params": list(data["params"]),
        "param_names": sorted(data["param_min"]),
        "statements": data["statements"],
    }


def program_from_dict(data: Mapping) -> Program:
    version = data.get("version")
    if version != IR_FORMAT_VERSION:
        raise ValueError(
            f"program serialized with format v{version}, this build "
            f"reads v{IR_FORMAT_VERSION}"
        )
    program = Program(data["name"], tuple(data["params"]), dict(data["param_min"]))
    for sd in data["statements"]:
        program.add_statement(_statement_from_dict(sd))
    return program
