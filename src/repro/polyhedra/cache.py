"""Content-addressed memoization for the expensive polyhedral primitives.

Dependence analysis and the scheduler's satisfaction tracking issue the same
small queries — emptiness checks, integer minima of affine expressions,
lexmins, Fourier–Motzkin projections — over the same constraint systems many
times: once per happens-before case and access pair during analysis, then
again per schedule level, per diamond attempt, and once more in
``mark_parallelism``.  All of these queries are pure functions of the
constraint *content*, so they are memoized here behind a process-global
:class:`PolyCache` keyed on ``(space, constraint rows)`` — the polyhedral
analogue of the solver-side warm-start/dedup work (`repro.ilp`).

Keys are content-addressed, so no invalidation is ever needed: a mutated
:class:`~repro.polyhedra.sets.BasicSet` simply produces a new key.  The cache
is bounded: each table is an LRU holding at most ``max_entries`` entries
(default generous, override with ``REPRO_POLY_CACHE_CAP`` or the
``max_entries`` constructor argument), so long-running processes — the
serving daemon in particular — cannot grow without bound.  Evictions are
counted in :class:`PolyCacheStats` and surface as ``cache_evictions`` in
``DepStats``.

Escape hatch: ``REPRO_DEPS_NO_CACHE=1`` (or the :func:`cache_disabled`
context manager, used by ``--no-deps-cache``) disables both the memoization
and the cheap fast-reject pre-filter in :mod:`repro.polyhedra.fastcheck`,
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
    lookups and hits, rows decided by the two exact rules, and the LPs the
    undecided rest still cost.
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

    def _total(self, suffix: str) -> int:
        return sum(v for k, v in self.as_dict().items() if k.endswith(suffix))

    @property
    def lookups(self) -> int:
        return self._total("_lookups")

    @property
    def hits(self) -> int:
        return self._total("_hits")

    @property
    def misses(self) -> int:
        return self.lookups - self.hits


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
        self._empty: OrderedDict = OrderedDict()
        self._min: OrderedDict = OrderedDict()
        self._lexmin: OrderedDict = OrderedDict()
        self._project: OrderedDict = OrderedDict()
        self._prune: OrderedDict = OrderedDict()

    # -- generic plumbing -----------------------------------------------------

    def _get(self, table: OrderedDict, key, lookups: str, hits: str):
        setattr(self.stats, lookups, getattr(self.stats, lookups) + 1)
        value = table.get(key, MISS)
        if value is not MISS:
            setattr(self.stats, hits, getattr(self.stats, hits) + 1)
            table.move_to_end(key)
        return value

    def _put(self, table: OrderedDict, key, value) -> None:
        if key in table:
            table.move_to_end(key)
        else:
            while len(table) >= self.max_entries:
                table.popitem(last=False)
                self.stats.evictions += 1
        table[key] = value

    # -- per-primitive accessors ----------------------------------------------

    def get_empty(self, key):
        return self._get(self._empty, key, "empty_lookups", "empty_hits")

    def put_empty(self, key, value: bool) -> None:
        self._put(self._empty, key, value)

    def get_min(self, key):
        return self._get(self._min, key, "min_lookups", "min_hits")

    def put_min(self, key, value) -> None:
        self._put(self._min, key, value)

    def get_lexmin(self, key):
        return self._get(self._lexmin, key, "lexmin_lookups", "lexmin_hits")

    def put_lexmin(self, key, value) -> None:
        self._put(self._lexmin, key, value)

    def get_project(self, key):
        return self._get(self._project, key, "project_lookups", "project_hits")

    def put_project(self, key, value) -> None:
        self._put(self._project, key, value)

    def get_prune(self, key):
        return self._get(self._prune, key, "prune_lookups", "prune_hits")

    def put_prune(self, key, value) -> None:
        self._put(self._prune, key, value)

    def _tables(self) -> tuple[OrderedDict, ...]:
        return (self._empty, self._min, self._lexmin, self._project, self._prune)

    def clear(self) -> None:
        """Drop every entry (stats are kept; reset them separately)."""
        for table in self._tables():
            table.clear()

    def reset_stats(self) -> None:
        self.stats = PolyCacheStats()

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables())


_GLOBAL = PolyCache()
_DISABLE_DEPTH = 0


def global_cache() -> PolyCache:
    """The process-wide cache instance (content-keyed, never stale)."""
    return _GLOBAL


def cache_enabled() -> bool:
    """Whether the fast path (memoization + fast-reject) is active."""
    if _DISABLE_DEPTH > 0:
        return False
    return os.environ.get("REPRO_DEPS_NO_CACHE", "") in ("", "0")


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
