"""The one atomic on-disk store primitive every persistent cache sits on.

Four subsystems persist content-addressed files and need the same
discipline: the schedule cache (:mod:`repro.server.cache`), the structural
skeleton store (:mod:`repro.core.skeleton`), the compiled-kernel artifact
cache (:mod:`repro.exec.artifacts`) and the suite manifests
(:mod:`repro.suite.manifest`).  That discipline lives here, once:

* **layout** — ``<root>/<key[:2]>/<key><suffix>``: a two-level fan-out so
  no directory grows past a few hundred entries;
* **atomic publish** — content is written to a ``<stem>.tmp.<pid><suffix>``
  sibling and ``os.replace``d into place, so readers only ever see whole
  files and concurrent writers (other daemons, other workers) never
  interleave (:func:`atomic_publish`, :func:`atomic_write_text`);
* **orphan sweep** — a writer killed between write and rename leaves its
  temporary behind forever; :meth:`AtomicStore.sweep` removes temporaries
  older than :data:`TMP_SWEEP_AGE` at startup and again every
  ``sweep_every`` puts, so long-lived daemons reclaim the space too;
* **verified reads** — a file the store's ``load`` rejects (truncated by a
  crashed writer, foreign format version) is a miss and is unlinked, so a
  bad file can never wedge its key;
* **memory tier** — an optional LRU of decoded values in front of the disk;
* **one** :class:`StoreStats`.

There is no invalidation protocol anywhere: keys are content addresses,
stale entries are simply never looked up again, and any root can be
deleted wholesale at any time.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from threading import Lock
from typing import Callable, Generic, Iterator, Optional, TypeVar

from repro.records import Record

__all__ = [
    "TMP_SWEEP_AGE",
    "TMP_SWEEP_EVERY",
    "AtomicStore",
    "StoreStats",
    "atomic_publish",
    "atomic_write_text",
    "tmp_path_for",
]

#: temporaries older than this are orphans of a writer that died between
#: write and rename; younger ones may belong to a live writer in another
#: process sharing the directory, so the sweeps skip them
TMP_SWEEP_AGE = 300.0

#: puts between opportunistic re-sweeps: a startup-only sweep lets a
#: long-lived daemon accumulate orphans from workers killed mid-write, so
#: every Nth put re-runs the sweep (an empty glob over the tree,
#: microseconds next to the serialization it rides on)
TMP_SWEEP_EVERY = 64

V = TypeVar("V")


def tmp_path_for(path: Path) -> Path:
    """The temporary sibling ``path`` is staged in before its rename.

    The real suffix stays last (a C compiler picks the language by it) and
    the pid keeps concurrent writer processes apart.
    """
    return path.with_name(f"{path.stem}.tmp.{os.getpid()}{path.suffix}")


@contextlib.contextmanager
def atomic_publish(*paths: Path) -> Iterator[list[Path]]:
    """Yield one temporary per path; a clean exit renames each into place.

    Whatever happens inside the block — a raise, a failed rename — no
    temporary outlives it; only a killed process can orphan one, and the
    sweep reclaims those.
    """
    tmps = [tmp_path_for(path) for path in paths]
    try:
        for path in paths:
            path.parent.mkdir(parents=True, exist_ok=True)
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    finally:
        for tmp in tmps:
            with contextlib.suppress(OSError):
                tmp.unlink()


def atomic_write_text(path: Path, text: str) -> None:
    with atomic_publish(path) as (tmp,):
        tmp.write_text(text)


@dataclass
class StoreStats(Record):
    hits_memory: int = 0
    hits_disk: int = 0
    misses: int = 0
    stores: int = 0
    store_errors: int = 0   # disk writes that failed (entry is memory-only)
    evictions: int = 0
    invalid_dropped: int = 0
    tmp_swept: int = 0

    @property
    def hits(self) -> int:
        return self.hits_memory + self.hits_disk

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        looked = self.lookups
        return 0.0 if not looked else self.hits / looked

    def as_dict(self) -> dict:
        return {
            **super().as_dict(),
            "lookups": self.lookups,
            "hit_rate": round(self.hit_rate, 4),
        }


class AtomicStore(Generic[V]):
    """Memory-LRU over an atomic fan-out directory of files; thread-safe.

    ``load`` decodes one file's text into the value the store serves, or
    returns ``None`` for content that must not be served (the file is then
    dropped).  ``root=None`` runs memory-only; ``memory_entries=0`` disables
    the memory tier (every hit re-reads disk).
    """

    def __init__(
        self,
        root: Optional[os.PathLike],
        suffix: str,
        load: Optional[Callable[[str], Optional[V]]] = None,
        *,
        memory_entries: int = 0,
        sweep_every: int = TMP_SWEEP_EVERY,
    ):
        self.root = None if root is None else Path(root)
        self.suffix = suffix
        self.load = load
        self.memory_entries = max(0, int(memory_entries))
        self.sweep_every = max(1, int(sweep_every))
        self.stats = StoreStats()
        self._mem: OrderedDict[str, V] = OrderedDict()
        self._lock = Lock()
        self._puts = 0
        self.stats.tmp_swept = self.sweep()

    def path_for(self, key: str, suffix: Optional[str] = None) -> Optional[Path]:
        if self.root is None:
            return None
        return self.root / key[:2] / f"{key}{suffix or self.suffix}"

    def sweep(self, max_age: float = TMP_SWEEP_AGE) -> int:
        """Remove orphaned atomic-write temporaries left by killed writers."""
        if self.root is None:
            return 0
        swept = 0
        now = time.time()
        for tmp in self.root.glob("*/*.tmp*"):
            try:
                if now - tmp.stat().st_mtime < max_age:
                    continue
                tmp.unlink()
                swept += 1
            except OSError:
                continue  # raced another sweeper, or unreadable: skip
        return swept

    # -- lookups -----------------------------------------------------------

    def fetch(self, key: str) -> tuple[Optional[V], Optional[str]]:
        """Return ``(value, tier)``; ``(None, None)`` on a miss.

        ``tier`` is ``"memory"`` or ``"disk"``; a disk hit is promoted
        into the memory tier.
        """
        with self._lock:
            value = self._mem.get(key)
            if value is not None:
                self._mem.move_to_end(key)
                self.stats.hits_memory += 1
                return value, "memory"

        value = self.read_disk(key)
        with self._lock:
            if value is None:
                self.stats.misses += 1
                return None, None
            self.stats.hits_disk += 1
            self._remember(key, value)
            return value, "disk"

    def read_disk(self, key: str) -> Optional[V]:
        """The decoded on-disk value, bypassing the memory tier and the
        hit/miss counters; an invalid file is dropped and reads as absent."""
        path = self.path_for(key)
        if path is None:
            return None
        try:
            value = self.load(path.read_text())
        except OSError:
            return None
        except ValueError:
            value = None  # undecodable bytes: as corrupt as a rejected load
        if value is None:
            # Corrupt (killed writer) or foreign-version: drop, recompute.
            with self._lock:
                self.stats.invalid_dropped += 1
            with contextlib.suppress(OSError):
                path.unlink()
        return value

    # -- stores ------------------------------------------------------------

    def put(self, key: str, text: str, value: Optional[V] = None) -> None:
        """Insert into both tiers; ``value`` is what ``load(text)`` yields
        (default: ``text`` itself).

        A failing disk write (ENOSPC, root removed or replaced) must not
        take the caller down with it: the entry degrades to memory-only and
        the failure is counted in ``stats.store_errors``.
        """
        path = self.path_for(key)
        stored = True
        if path is not None:
            try:
                atomic_write_text(path, text)
            except OSError:
                stored = False
        self._note_put(stored, key, text if value is None else value)

    def _note_put(self, stored: bool = True, key: Optional[str] = None,
                  value: Optional[V] = None) -> None:
        """Account one put (remembering ``value`` when given) and re-run
        the sweep on every ``sweep_every``-th."""
        with self._lock:
            self.stats.stores += 1
            if not stored:
                self.stats.store_errors += 1
            if key is not None:
                self._remember(key, value)
            self._puts += 1
            due = self.root is not None and self._puts % self.sweep_every == 0
        if due:
            swept = self.sweep()
            with self._lock:
                self.stats.tmp_swept += swept

    def _remember(self, key: str, value: V) -> None:
        # caller holds the lock
        if self.memory_entries == 0:
            return
        if key in self._mem:
            self._mem.move_to_end(key)
        else:
            while len(self._mem) >= self.memory_entries:
                self._mem.popitem(last=False)
                self.stats.evictions += 1
        self._mem[key] = value

    # -- introspection -----------------------------------------------------

    def memory_len(self) -> int:
        with self._lock:
            return len(self._mem)

    def disk_len(self) -> int:
        if self.root is None:
            return 0
        return sum(
            1 for p in self.root.glob(f"*/*{self.suffix}")
            if ".tmp" not in p.name
        )

    def snapshot(self) -> dict:
        with self._lock:
            stats = self.stats.as_dict()
        return {
            **stats,
            "memory_entries": self.memory_len(),
            "memory_capacity": self.memory_entries,
            "disk_entries": self.disk_len(),
            "root": None if self.root is None else str(self.root),
        }
