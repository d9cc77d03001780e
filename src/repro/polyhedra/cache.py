"""Content-addressed memoization for the expensive polyhedral primitives.

Dependence analysis and the scheduler's satisfaction tracking issue the same
small queries — emptiness checks, integer minima of affine expressions,
lexmins, Fourier–Motzkin projections — over the same constraint systems many
times: once per happens-before case and access pair during analysis, then
again per schedule level, per diamond attempt, and once more in
``mark_parallelism``.  All of these queries are pure functions of the
constraint *content*, so they are memoized here behind a process-global
:class:`PolyCache` keyed on ``(space, constraint rows)`` — the polyhedral
analogue of the solver-side warm-start/dedup work (`repro.ilp`).  One level
up, the ``relations`` table keeps a program's whole dependence set, keyed on
the program's content, so a recompile of an unchanged program (another tile
size, another backend) analyses nothing.

Keys are content-addressed, so no invalidation is ever needed: a mutated
:class:`~repro.polyhedra.sets.BasicSet` simply produces a new key.  The cache
is bounded: each table is an LRU holding at most ``max_entries`` entries
(default generous, override with ``REPRO_POLY_CACHE_CAP`` or the
``max_entries`` constructor argument), so long-running processes — the
serving daemon in particular — cannot grow without bound.  Evictions are
counted in :class:`PolyCacheStats` and surface as ``cache_evictions`` in
``DepStats``.

Escape hatch: the :func:`cache_disabled` context manager (used by
``--no-deps-cache``) disables both the memoization and the cheap
fast-reject pre-filter in :mod:`repro.polyhedra.fastcheck`,
reproducing the seed's uncached behavior bit for bit.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from repro.records import Record

__all__ = [
    "PolyCacheStats",
    "PolyCache",
    "global_cache",
    "active_cache",
    "cache_enabled",
    "cache_disabled",
    "MISS",
]

#: Sentinel distinguishing "no cached entry" from a cached ``None`` result.
MISS = object()


@dataclass
class PolyCacheStats(Record):
    """Hit/miss accounting per memoized primitive, plus fast-reject counts.

    ``fast_rejects`` is incremented by :mod:`repro.polyhedra.fastcheck` when
    the cheap bound/gcd pre-filter proves a system empty without any LP/ILP
    call; it lives here so one snapshot captures the whole fast path.
    ``evictions`` counts entries dropped by the per-table LRU bound.
    The ``prune_*`` fields account for redundancy pruning
    (:func:`~repro.polyhedra.fourier_motzkin.prune_redundant_rows`): memo
    lookups and hits, rows decided by the two exact rules, and the HiGHS
    entries the undecided rest still cost.  ``min_by_rule`` counts ``min_of``
    questions answered from the set's equalities.  A ``cone`` miss is one
    Farkas multiplier elimination (:func:`repro.core.farkas.cone`), a
    ``relations`` miss one whole dependence analysis
    (:func:`repro.deps.analysis.enumerate_relations`).  ``lookups`` / ``hits``
    total the tables in :data:`TABLES`, not every ``*_hits`` field.
    """

    empty_lookups: int = 0
    empty_hits: int = 0
    min_lookups: int = 0
    min_hits: int = 0
    lexmin_lookups: int = 0
    lexmin_hits: int = 0
    project_lookups: int = 0
    project_hits: int = 0
    fast_rejects: int = 0
    evictions: int = 0
    prune_lookups: int = 0
    prune_hits: int = 0
    prune_rule_rows: int = 0
    prune_lp_solves: int = 0
    min_by_rule: int = 0
    cone_lookups: int = 0
    cone_hits: int = 0
    relations_lookups: int = 0
    relations_hits: int = 0

    @property
    def lookups(self) -> int:
        return sum(getattr(self, f"{table}_lookups") for table in TABLES)

    @property
    def hits(self) -> int:
        return sum(getattr(self, f"{table}_hits") for table in TABLES)

    @property
    def misses(self) -> int:
        return self.lookups - self.hits


#: the memo tables: each has a ``<name>_lookups`` / ``<name>_hits`` pair in
#: :class:`PolyCacheStats` and an LRU in :class:`PolyCache`
TABLES = ("empty", "min", "lexmin", "project", "prune", "cone", "relations")

#: per-table LRU capacity when neither the env override nor the constructor
#: argument is given; generous enough that single pipeline runs never evict
DEFAULT_MAX_ENTRIES = 200_000


def _default_max_entries() -> int:
    raw = os.environ.get("REPRO_POLY_CACHE_CAP", "")
    if raw:
        try:
            cap = int(raw)
            if cap >= 1:
                return cap
        except ValueError:
            pass
    return DEFAULT_MAX_ENTRIES


class PolyCache:
    """Memo tables for the polyhedral primitives, with stats.

    One table per primitive; every table is keyed on values derived from the
    constraint content (see ``BasicSet.content_key``), so entries never go
    stale.  Each table is an LRU bounded at ``max_entries``: a hit refreshes
    the entry, an insert past capacity evicts the least recently used —
    eviction can only cost recomputation, never change an answer.
    """

    def __init__(self, max_entries: Optional[int] = None):
        self.max_entries = (
            _default_max_entries() if max_entries is None else max_entries
        )
        self.stats = PolyCacheStats()
        self._tables = {table: OrderedDict() for table in TABLES}

    def clear(self) -> None:
        """Drop every entry (stats are kept; reset them separately)."""
        for table in self._tables.values():
            table.clear()

    def reset_stats(self) -> None:
        self.stats = PolyCacheStats()

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables.values())


def _add_accessors(name: str) -> None:
    """Give :class:`PolyCache` ``get_<name>(key)`` / ``put_<name>(key, value)``."""
    lookups, hits = f"{name}_lookups", f"{name}_hits"

    def get(self, key):
        table, stats = self._tables[name], self.stats
        setattr(stats, lookups, getattr(stats, lookups) + 1)
        value = table.get(key, MISS)
        if value is not MISS:
            setattr(stats, hits, getattr(stats, hits) + 1)
            table.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        table = self._tables[name]
        if key in table:
            table.move_to_end(key)
        else:
            while len(table) >= self.max_entries:
                table.popitem(last=False)
                self.stats.evictions += 1
        table[key] = value

    setattr(PolyCache, f"get_{name}", get)
    setattr(PolyCache, f"put_{name}", put)


for _table in TABLES:
    _add_accessors(_table)

_GLOBAL = PolyCache()
_DISABLE_DEPTH = 0


def global_cache() -> PolyCache:
    """The process-wide cache instance (content-keyed, never stale)."""
    return _GLOBAL


def cache_enabled() -> bool:
    """Whether the fast path (memoization + fast-reject) is active."""
    return _DISABLE_DEPTH == 0


def active_cache() -> Optional[PolyCache]:
    """The global cache when enabled, else ``None`` (callers skip memo)."""
    return _GLOBAL if cache_enabled() else None


@contextmanager
def cache_disabled():
    """Temporarily disable the fast path (``--no-deps-cache``)."""
    global _DISABLE_DEPTH
    _DISABLE_DEPTH += 1
    try:
        yield
    finally:
        _DISABLE_DEPTH -= 1
