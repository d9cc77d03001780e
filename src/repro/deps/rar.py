"""Read-after-read (RAR) relations: a locality signal, never a constraint.

Two reads of the same array cell carry no ordering requirement, so classic
dependence analysis (:mod:`repro.deps.analysis`) ignores them.  They do
carry *reuse*: scheduling both accesses close together keeps the cell hot
in cache.  Kong & Pouchet ("A Performance Vocabulary for Affine Loop
Transformations") motivate treating this read-read reuse as a first-class
locality term, which is exactly how PLUTO+'s objective already treats the
distance of real dependences — eq. (3) bounds every dependence distance by
``u.p + w`` and the lexmin objective drives ``u, w`` down.

RAR relations come out of the same enumerator as the real dependences
(:func:`repro.deps.analysis.enumerate_relations`: product space,
happens-before case split, incremental polyhedron construction, fast-reject
emptiness); this module only supplies the read×read pair filter, which tags
them ``kind="rar"``.
The scheduler adds *only* their Farkas bounding rows to the per-band model
— they participate in the locality objective and nothing else.  They are
never handed to the dependence graph: legality, satisfaction tracking, SCC
cuts, and parallelism marking do not see them, so enabling ``rar`` can
steer the objective between equally-legal schedules but can never make an
illegal one legal (property-tested in ``tests/deps/test_rar.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.deps.analysis import Dependence, DepStats, enumerate_relations

__all__ = ["compute_rar_dependences"]


def _read_pairs(src, tgt):
    for r1 in src.reads:
        for r2 in tgt.reads:
            if r1.array == r2.array:
                yield "rar", r1, r2


def compute_rar_dependences(
    program, stats: Optional[DepStats] = None
) -> list[Dependence]:
    """All non-empty RAR relations of ``program`` (``kind == "rar"``).

    :func:`repro.deps.analysis.enumerate_relations` restricted to read×read
    access pairs.  ``stats``, when given, accumulates the same fast-path
    counters plus the dedicated ``rar_deps`` count.
    """
    return enumerate_relations(program, _read_pairs, "rar_deps", stats)
