"""Data dependence analysis.

For every ordered pair of accesses to the same array (write→read = RAW,
read→write = WAR, write→write = WAW) and every happens-before case of the
original 2d+1 schedules, a dependence polyhedron is built over the product
space ``(source iters, target iters, params)`` and kept when non-empty.

This yields *memory-based* dependences — a sound superset of the value-based
(``--lastwriter``) dependences the paper's toolchain computes with ISL.  For
the regular affine kernels evaluated (Polybench, stencils, LBM) the extra
transitively-covered edges constrain the same hyperplanes, so the scheduler's
choices match; DESIGN.md records this substitution.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.frontend.ir import Access, Program, Statement
from repro.frontend.serialize import program_to_dict
from repro.polyhedra import AffExpr, BasicSet, Constraint, Space
from repro.polyhedra.cache import MISS, active_cache, global_cache
from repro.records import Record

__all__ = [
    "DepStats",
    "Dependence",
    "Relation",
    "compute_dependences",
    "enumerate_relations",
    "product_domain",
    "product_space",
]

SRC_SUFFIX = "__s"
TGT_SUFFIX = "__t"


@dataclass
class DepStats(Record):
    """Fast-path counters for dependence analysis (the ``SolveStats`` twin).

    ``pairs_tested`` counts candidate dependence polyhedra (access pair ×
    happens-before case); ``fast_rejects`` those proven empty by the cheap
    bound/gcd pre-filter alone; ``cache_hits``/``cache_misses`` the memoized
    polyhedral primitive lookups (emptiness, minima, lexmin, projections)
    issued while this record was attached; ``fm_saved`` the Fourier–Motzkin
    projection cascades answered from cache; ``cache_evictions`` the memo
    entries dropped by the LRU bound while attached; ``analysis_seconds``
    wall time inside :func:`compute_dependences`.
    """

    pairs_tested: int = 0
    deps_found: int = 0
    fast_rejects: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    fm_saved: int = 0
    cache_evictions: int = 0
    analysis_seconds: float = 0.0
    #: RAR (read-after-read) relations found by :mod:`repro.deps.rar`;
    #: counted separately from ``deps_found`` because they never enter the
    #: legality set.  Zero unless ``PipelineOptions.rar`` is enabled.
    rar_deps: int = 0

    @property
    def lookups(self) -> int:
        return self.cache_hits + self.cache_misses


class Relation:
    """One non-empty relation as the PolyCache ``relations`` table holds it.

    Statement *positions* stand in for statements, so one entry serves every
    program with the same content; :func:`enumerate_relations` binds it to
    the caller's statements as a new :class:`Dependence`.  ``digest`` is the
    solve-key digest (:func:`repro.core.skeleton.dependence_digest`), filled
    in on first use and shared by every dependence bound to the relation.
    """

    __slots__ = (
        "source", "target", "kind", "array", "polyhedron", "candidate", "digest"
    )

    def __init__(self, source: int, target: int, kind: str, array: str,
                 polyhedron: BasicSet, candidate: tuple[int, int]):
        self.source, self.target = source, target
        self.kind, self.array = kind, array
        self.polyhedron, self.candidate = polyhedron, candidate
        self.digest: Optional[str] = None


@dataclass
class Dependence:
    """One dependence edge with its polyhedron.

    ``polyhedron`` lives in the product space; ``src_rename``/``tgt_rename``
    map original iterator names of source/target statements into it.
    ``polyhedron`` is shared with the :class:`Relation` the edge was bound
    from, and through it with every other edge bound from the same memo
    entry: it is never mutated (:class:`repro.deps.ordering.Ordering` and the
    verifier narrow copies).  Which of its pairs a schedule orders, and
    where, is an ``Ordering``'s to track, not the edge's.
    """

    source: Statement
    target: Statement
    kind: str                      # "raw" | "war" | "waw" | "rar" (locality-only)
    array: str
    polyhedron: BasicSet
    src_rename: dict[str, str]
    tgt_rename: dict[str, str]
    #: which candidate of its statement pair this is: (position among the
    #: pair's access pairs, happens-before case)
    candidate: tuple[int, int] = (0, 0)
    #: the memo entry's record this edge was bound from (carries the digest)
    relation: Optional[Relation] = field(default=None, compare=False)

    @property
    def space(self) -> Space:
        return self.polyhedron.space

    def distance_expr(self, phi_src: AffExpr, phi_tgt: AffExpr) -> AffExpr:
        """``phi_tgt(t) - phi_src(s)`` in the product space.

        ``phi_src``/``phi_tgt`` are affine expressions over the statements'
        own spaces; they are rebased through the product renames.
        """
        space = self.space
        t = phi_tgt.rebase(space, self.tgt_rename)
        s = phi_src.rebase(space, self.src_rename)
        return t - s

    def min_distance(self, phi_src: AffExpr, phi_tgt: AffExpr):
        """Exact integer minimum of the dependence distance (None if empty)."""
        return self.polyhedron.min_of(self.distance_expr(phi_src, phi_tgt))

    def is_uniform(self) -> bool:
        """True when the dependence fixes ``t - s`` to a constant vector."""
        return self.distance_vector() is not None

    def distance_vector(self) -> Optional[tuple[int, ...]]:
        """The constant distance vector for uniform self-dependences."""
        if self.source.space.dims != self.target.space.dims:
            return None
        out = []
        for it in self.source.space.dims:
            d = AffExpr.var(self.space, self.tgt_rename[it]) - AffExpr.var(
                self.space, self.src_rename[it]
            )
            try:
                lo = self.polyhedron.min_of(d)
                hi = self.polyhedron.max_of(d)
            except ValueError:
                return None  # parametric (unbounded) distance: not uniform
            if lo is None or lo != hi:
                return None
            out.append(int(lo))
        return tuple(out)

    def __str__(self) -> str:
        return (
            f"{self.kind.upper()} {self.source.name} -> {self.target.name} "
            f"on {self.array}"
        )

    __repr__ = __str__


def product_space(src: Statement, tgt: Statement) -> tuple[Space, dict, dict]:
    """Product space of two statements with disjoint renamed iterators."""
    src_rename = {it: it + SRC_SUFFIX for it in src.space.dims}
    tgt_rename = {it: it + TGT_SUFFIX for it in tgt.space.dims}
    dims = tuple(src_rename[i] for i in src.space.dims) + tuple(
        tgt_rename[i] for i in tgt.space.dims
    )
    return Space(dims, src.space.params), src_rename, tgt_rename


def product_domain(
    program: Program, src: Statement, tgt: Statement
) -> tuple[BasicSet, dict, dict]:
    """Every pair of one ``src`` and one ``tgt`` instance under the parameter
    context: the rows all questions about the two statements share."""
    space, src_rename, tgt_rename = product_space(src, tgt)
    pairs = BasicSet(space)
    for con in src.domain.constraints:
        pairs.add(con.rebase(space, src_rename))
    for con in tgt.domain.constraints:
        pairs.add(con.rebase(space, tgt_rename))
    for con in program.context_constraints(space):
        pairs.add(con)
    return pairs, src_rename, tgt_rename


def _happens_before_cases(
    src: Statement, tgt: Statement, space: Space, src_rename, tgt_rename
) -> Iterable[list[Constraint]]:
    """Constraint conjunctions under which ``src`` instance executes before
    ``tgt`` instance, split by the first schedule level that decides order."""
    a, b = src.sched, tgt.sched
    prefix_eqs: list[Constraint] = []
    for level in range(max(len(a), len(b))):
        ea = a[level] if level < len(a) else None
        eb = b[level] if level < len(b) else None
        if ea is None or eb is None:
            # One schedule is a strict prefix of the other: same scalar
            # position so far — the shorter one is "at" this point.  With the
            # 2d+1 form both schedules end in a scalar, so lengths only
            # differ when nesting depth differs; order was already decided by
            # an earlier scalar, hence no further case here.
            return
        scalar_a = isinstance(ea, int)
        scalar_b = isinstance(eb, int)
        if scalar_a and scalar_b:
            if ea < eb:
                yield list(prefix_eqs)
                return
            if ea > eb:
                return
            continue
        if scalar_a != scalar_b:
            # Structurally impossible under a common prefix (a loop vs a
            # statement position at the same level): treat like unordered.
            return
        sa = ea.rebase(space, src_rename)
        sb = eb.rebase(space, tgt_rename)
        yield prefix_eqs + [Constraint(sb - sa - 1)]  # strictly before here
        prefix_eqs = prefix_eqs + [Constraint(sb - sa, equality=True)]
    # All levels equal: same instance — never a dependence by itself.
    return


def _access_pairs(src: Statement, tgt: Statement):
    for w in src.writes:
        for r in tgt.reads:
            if w.array == r.array:
                yield "raw", w, r
    for r in src.reads:
        for w in tgt.writes:
            if r.array == w.array:
                yield "war", r, w
    for w1 in src.writes:
        for w2 in tgt.writes:
            if w1.array == w2.array:
                yield "waw", w1, w2


def _dependence_polyhedron(
    program: Program,
    src: Statement,
    tgt: Statement,
    acc_s: Access,
    acc_t: Access,
    case: list[Constraint],
    space: Space,
    src_rename,
    tgt_rename,
) -> BasicSet:
    """One candidate polyhedron, built from scratch (reference path).

    :func:`compute_dependences` builds the same conjunctions incrementally
    (domains hoisted per statement pair, conflict equalities per access
    pair); this standalone builder is kept as the executable specification
    the incremental construction is tested against.
    """
    poly = BasicSet(space)
    for con in src.domain.constraints:
        poly.add(con.rebase(space, src_rename))
    for con in tgt.domain.constraints:
        poly.add(con.rebase(space, tgt_rename))
    if acc_s.guard is not None:
        for con in acc_s.guard.constraints:
            poly.add(con.rebase(space, src_rename))
    if acc_t.guard is not None:
        for con in acc_t.guard.constraints:
            poly.add(con.rebase(space, tgt_rename))
    # conflict: both touch the same array cell
    for es, et in zip(acc_s.map.exprs, acc_t.map.exprs):
        poly.add(
            Constraint(
                et.rebase(space, tgt_rename) - es.rebase(space, src_rename),
                equality=True,
            )
        )
    for con in case:
        poly.add(con)
    for con in program.context_constraints(space):
        poly.add(con)
    return poly


def compute_dependences(
    program: Program, stats: Optional[DepStats] = None
) -> list[Dependence]:
    """All memory-based RAW/WAR/WAW dependences of ``program``.

    A program fresh from index-set splitting carries the candidates its
    source program's analysis found non-empty (``Program.live_candidates``);
    a candidate between pieces whose origins' candidate was empty is a
    subset of an empty set and is skipped untested, uncounted.
    """
    return enumerate_relations(
        program, _access_pairs, "deps_found", stats, program.live_candidates
    )


def enumerate_relations(
    program: Program,
    access_pairs: Callable[
        [Statement, Statement], Iterable[tuple[str, Access, Access]]
    ],
    counter: str,
    stats: Optional[DepStats] = None,
    live: Optional[frozenset] = None,
) -> list[Dependence]:
    """Every non-empty access-pair relation ``access_pairs`` selects.

    The one enumerator behind the real dependences and the RAR relations
    (:mod:`repro.deps.rar`), which differ only in the ``(kind, source
    access, target access)`` triples ``access_pairs(src, tgt)`` yields and
    in the :class:`DepStats` field ``counter`` names for the result count.

    The per-candidate polyhedra share most of their rows (statement domains,
    the parameter context), so those are rebased once per statement pair and
    the access-pair / happens-before-case specifics are layered on copies —
    the construction-side half of the fast path, the query side being
    :meth:`~repro.polyhedra.sets.BasicSet.is_empty`'s fast-reject and memo.
    ``stats``, when given, accumulates :class:`DepStats` counters.  ``live``,
    when given, holds the ``(source origin, target origin, *candidate)`` keys
    worth testing between statements that have an origin — it must come from
    the same ``access_pairs``; :func:`_dependence_polyhedron` stays the
    specification of every candidate, tested or skipped.

    The whole answer is memoised in the PolyCache ``relations`` table, keyed
    on ``access_pairs`` and the sha256 of canonical
    :func:`~repro.frontend.serialize.program_to_dict` — every IR field the
    analysis reads, and the program name.  ``live`` and the statements'
    ``origin`` stay out of the key: they decide which candidates are tested,
    not the answer.  A hit tests nothing (``pairs_tested`` 0, the lookup
    counted in ``cache_hits``) and returns new :class:`Dependence` objects
    bound to ``program``'s statements, so nothing a caller does to them
    reaches the entry.
    """
    t_start = time.perf_counter()
    cache_stats = global_cache().stats
    base_snapshot = cache_stats.snapshot()
    cache = active_cache()
    relations = MISS
    if cache is not None:
        key = (access_pairs, _content_digest(program))
        relations = cache.get_relations(key)
    pairs_tested = 0
    if relations is MISS:
        relations, pairs_tested = _relations(program, access_pairs, live)
        if cache is not None:
            cache.put_relations(key, relations)
    deps = _bind(program, relations)
    if stats is not None:
        delta = cache_stats.delta_since(base_snapshot)
        stats.pairs_tested += pairs_tested
        setattr(stats, counter, getattr(stats, counter) + len(deps))
        stats.fast_rejects += delta.fast_rejects
        stats.cache_hits += delta.hits
        stats.cache_misses += delta.misses
        stats.fm_saved += delta.project_hits
        stats.cache_evictions += delta.evictions
        stats.analysis_seconds += time.perf_counter() - t_start
    return deps


def _content_digest(program: Program) -> str:
    text = json.dumps(
        program_to_dict(program), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _bind(program: Program, relations: Iterable[Relation]) -> list[Dependence]:
    """New :class:`Dependence` objects for ``relations`` over ``program``."""
    statements = program.statements
    renames: dict[tuple[int, int], tuple] = {}
    deps = []
    for rel in relations:
        src, tgt = statements[rel.source], statements[rel.target]
        pair = renames.get((rel.source, rel.target))
        if pair is None:
            pair = renames[rel.source, rel.target] = product_space(src, tgt)[1:]
        deps.append(Dependence(
            source=src, target=tgt, kind=rel.kind, array=rel.array,
            polyhedron=rel.polyhedron, src_rename=pair[0], tgt_rename=pair[1],
            candidate=rel.candidate, relation=rel,
        ))
    return deps


def _relations(
    program: Program, access_pairs, live: Optional[frozenset]
) -> tuple[tuple[Relation, ...], int]:
    """The analysis itself: every non-empty relation, and the number of
    candidates tested to find them."""
    relations: list[Relation] = []
    pairs_tested = 0
    numbered = list(enumerate(program.statements))
    for (i_src, src), (i_tgt, tgt) in itertools.product(numbered, repeat=2):
        space, src_rename, tgt_rename = product_space(src, tgt)
        cases = list(
            _happens_before_cases(src, tgt, space, src_rename, tgt_rename)
        )
        if not cases:
            continue
        inherits = live is not None and src.origin and tgt.origin
        wanted = every = range(len(cases))
        pair_base: Optional[BasicSet] = None
        for n_pair, (kind, acc_s, acc_t) in enumerate(access_pairs(src, tgt)):
            if inherits:
                wanted = [
                    n_case for n_case in every
                    if (src.origin, tgt.origin, n_pair, n_case) in live
                ]
                if not wanted:
                    continue
            if pair_base is None:
                pair_base = product_domain(program, src, tgt)[0]
            acc_base = pair_base.copy()
            if acc_s.guard is not None:
                for con in acc_s.guard.constraints:
                    acc_base.add(con.rebase(space, src_rename))
            if acc_t.guard is not None:
                for con in acc_t.guard.constraints:
                    acc_base.add(con.rebase(space, tgt_rename))
            for es, et in zip(acc_s.map.exprs, acc_t.map.exprs):
                acc_base.add(
                    Constraint(
                        et.rebase(space, tgt_rename)
                        - es.rebase(space, src_rename),
                        equality=True,
                    )
                )
            for n_case in wanted:
                poly = acc_base.copy()
                for con in cases[n_case]:
                    poly.add(con)
                pairs_tested += 1
                if poly.is_empty():
                    continue
                relations.append(Relation(
                    i_src, i_tgt, kind, acc_s.array, poly, (n_pair, n_case)
                ))
    return tuple(relations), pairs_tested
