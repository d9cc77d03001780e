"""Cross-request structural warm-start: fingerprints, solve replay, store.

The serving cache (PR 4) answers *exact* repeats: same serialized IR, same
resolved options, byte-for-byte.  Real request streams are sweeps — the
same kernel resubmitted with a different tile size, a renamed program,
rescaled problem-size parameters.  Every such
near-duplicate is an exact-cache miss that pays the whole Farkas + lexmin
pipeline again even though the PLUTO+ constraint system only depends on
the *shape* of the domains and dependences.

This module turns those misses into warm solves, in three pieces:

* **structural fingerprint** — a canonical hash of the request modulo
  parameter values: the program's structural dict (see
  :func:`repro.frontend.serialize.structural_program_dict`) plus only the
  *schedule-relevant* options (tile sizes, post-scheduling passes and
  cache toggles are dropped).  Two requests with the same fingerprint run the
  same hyperplane search over the same dependence shapes.

* **solve replay** (:class:`WarmStart`) — the per-level artifacts worth
  reusing.  Every ``find_hyperplane`` ILP is identified by a *solve key*:
  an exhaustive hash of everything that determines the model and the
  solver's answer (algorithm, bounds, backend, statement spaces, current
  ranks and hyperplane rows, the active dependences' polyhedra, parameter
  lower bounds).  Because every model variable appears in the lexmin
  objective order or is forced by the ``c``s (diamond's ``ds.<S>`` sign
  binaries), the lexicographic optimum is a *unique* vector — so a
  recorded solution vector for an identical solve key can be replayed
  verbatim and is bit-identical to re-solving by construction.  Any key
  mismatch (e.g. rescaled ``param_min`` changes the Farkas system) falls
  back to a cold solve for that level; correctness never rests on the
  record.

* **skeleton store** (:class:`SkeletonStore`) — per structural
  fingerprint, the recorded solves plus descriptive metadata (Farkas row
  skeleton sizes, chosen band structure, the quick-scheduler verdict),
  content-addressed on disk as ``<root>/<fp[:2]>/<fp>.json`` on the shared
  :class:`repro.store.AtomicStore` (atomic writes, orphan sweeps, verified
  reads, restart survival).  Enabled via ``REPRO_SKELETON_CACHE`` (the
  daemon sets it from ``--skeleton-dir``); unset or empty disables the
  whole layer.

The store can only ever change *how fast* a schedule is found, never
*which* schedule: replay fires solely on exact solve-key matches, and the
regression suite pins warm results byte-identical to cold ones.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from threading import Lock
from typing import Mapping, Optional

from repro.store import TMP_SWEEP_EVERY, AtomicStore

__all__ = [
    "SKELETON_FORMAT_VERSION",
    "SCHEDULE_RELEVANT_OPTIONS",
    "SkeletonStore",
    "WarmStart",
    "dependence_digest",
    "scheduler_solve_key",
    "skeleton_store_from_env",
    "structural_fingerprint",
]

#: bumped whenever the fingerprint, solve-key, or record shape changes —
#: folded into both, so stale records are simply never looked up again
SKELETON_FORMAT_VERSION = 1

#: the PipelineOptions fields that can change which schedule the
#: hyperplane search finds.  Everything else (tiling knobs, cache toggles)
#: only affects post-scheduling passes and is deliberately *excluded*, so an
#: option sweep over them lands on one fingerprint.
SCHEDULE_RELEVANT_OPTIONS = (
    "algorithm",
    "scheduler",
    "coeff_bound",
    "fuse",
    "iss",
    "diamond",
    # RAR bounding rows change the per-level model without changing the
    # active dependence set, and reduction relaxation changes the set
    # itself — records from either knob must never be replayed for the
    # other.
    "rar",
    "parallel_reductions",
)

_DEFAULT_MEMORY_ENTRIES = 32


def _canonical_hash(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- fingerprints ------------------------------------------------------------

def structural_fingerprint(program_dict: Mapping, options_dict: Mapping) -> str:
    """Structural identity of one scheduling request (hex sha256).

    Distinct from :func:`repro.server.cache.cache_key`: the program enters
    modulo its name and parameter *values* (shape only), and only the
    :data:`SCHEDULE_RELEVANT_OPTIONS` subset of the options participates.
    The pipeline fingerprint is folded in so records from a pipeline that
    could schedule differently are never consulted.
    """
    from repro.frontend.serialize import structural_program_dict
    from repro.pipeline import pipeline_fingerprint

    options = {
        k: options_dict[k] for k in SCHEDULE_RELEVANT_OPTIONS if k in options_dict
    }
    return _canonical_hash({
        "v": SKELETON_FORMAT_VERSION,
        "pipeline": pipeline_fingerprint(
            options_dict.get("scheduler", "exact"), schedule_only=True
        ),
        "program": structural_program_dict(program_dict),
        "options": options,
    })


def dependence_digest(dep) -> str:
    """Content identity of one dependence edge (hex sha256).

    Hashes the raw product-space polyhedron (constraint rows, order
    insensitive) plus the edge's endpoints and renames — everything the
    Farkas elimination consumes.  All of it is fixed by the program's
    content, so the digest is stored on the edge's
    :class:`~repro.deps.analysis.Relation` and computed once per memo entry
    of the PolyCache ``relations`` table: once for every level, run and
    request that analyses an equal program.
    """
    relation = dep.relation
    if relation is not None and relation.digest is not None:
        return relation.digest
    space = dep.polyhedron.space
    rows = sorted(
        (tuple(str(x) for x in c.coeffs), c.equality)
        for c in dep.polyhedron.constraints
    )
    digest = _canonical_hash([
        dep.source.name, dep.target.name, dep.kind, dep.array,
        sorted(dep.src_rename.items()), sorted(dep.tgt_rename.items()),
        list(space.dims), list(space.params), rows,
    ])
    if relation is not None:
        relation.digest = digest
    return digest


def scheduler_solve_key(program, options, sched, active, extra=None) -> str:
    """Identity of one ``find_hyperplane`` ILP solve (hex sha256).

    Covers every input the per-level model is built from — scheduler
    options that shape the model, statement spaces,
    current ranks and hyperplane rows, the active dependences' polyhedra,
    and the parameter lower bounds (they enter the dependence context and
    hence the Farkas system).  ``extra`` tags variants that add side
    constraints on top of ``build_model`` (the diamond search).  Two solves
    with equal keys have the same unique lexmin optimum, so a recorded
    solution is exact — not heuristic — reuse.
    """
    payload = {
        "v": SKELETON_FORMAT_VERSION,
        "alg": options.algorithm,
        "b": options.coeff_bound,
        "csum": options.csum_objective,
        "params": list(program.params),
        "pmin": sorted(program.param_min.items()),
        "stmts": [
            [
                s.name,
                list(s.space.dims),
                list(s.space.params),
                sched.rank[s.name],
                sched.h_rows(s),
            ]
            for s in program.statements
        ],
        "deps": sorted(dependence_digest(d) for d in active),
        "extra": extra,
    }
    return _canonical_hash(payload)


# -- per-run replay context --------------------------------------------------

class WarmStart:
    """Recorded solves for one structural fingerprint, live for one run.

    ``solves`` maps solve key → ``{"status": ..., "assignment": {var:
    "int-or-fraction-string"}}``.  The scheduler consults it per level
    (:meth:`lookup`) and records every cold solve (:meth:`record`);
    ``hits``/``misses`` drive the request's ``structural_path`` verdict
    and ``dirty`` tells the pipeline whether the store needs a merge.
    """

    def __init__(self, solves: Optional[dict] = None):
        self.solves: dict = dict(solves or {})
        self.hits = 0
        self.misses = 0
        self.dirty = False
        #: informational Farkas row counts, label → [legal, bound]: the rows
        #: the cone leaves after substitution; never compared, only recorded
        self.farkas: dict[str, list[int]] = {}

    def lookup(self, skey: str) -> Optional[dict]:
        rec = self.solves.get(skey)
        return rec if isinstance(rec, dict) else None

    def record(self, skey: str, record: dict) -> None:
        if skey not in self.solves:
            self.solves[skey] = record
            self.dirty = True

    def forget(self, skey: str) -> None:
        """Drop a record that failed to replay (corrupt/foreign)."""
        if self.solves.pop(skey, None) is not None:
            self.dirty = True

    def note_farkas(self, label: str, n_legal: int, n_bound: int) -> None:
        if label not in self.farkas:
            self.farkas[label] = [n_legal, n_bound]
            self.dirty = True


# -- the on-disk store -------------------------------------------------------

def _load(text: str) -> Optional[dict]:
    """Decode one record file; ``None`` for anything not servable."""
    try:
        record = json.loads(text)
    except ValueError:
        return None  # killed writer / truncated file
    if (
        isinstance(record, dict)
        and record.get("version") == SKELETON_FORMAT_VERSION
        and isinstance(record.get("solves"), dict)
    ):
        return record
    return None


class SkeletonStore(AtomicStore[dict]):
    """Disk-persistent skeleton records, one JSON file per fingerprint.

    The record tier of :class:`~repro.store.AtomicStore`
    (``<root>/<fp[:2]>/<fp>.json``), with a small in-memory LRU so a warm
    worker serving a sweep re-reads nothing.
    """

    def __init__(
        self,
        root: os.PathLike,
        memory_entries: int = _DEFAULT_MEMORY_ENTRIES,
        sweep_every: int = TMP_SWEEP_EVERY,
    ):
        Path(root).mkdir(parents=True, exist_ok=True)
        super().__init__(
            root, ".json", _load,
            memory_entries=memory_entries, sweep_every=sweep_every,
        )

    def get(self, fingerprint: str) -> Optional[dict]:
        """The stored record, or ``None``; invalid files are dropped."""
        return self.fetch(fingerprint)[0]

    def merge(
        self,
        fingerprint: str,
        solves: Mapping,
        meta: Optional[Mapping] = None,
        farkas: Optional[Mapping] = None,
    ) -> dict:
        """Read-merge-write one fingerprint's record (atomic replace).

        New solve keys are added to whatever is already on disk — a sweep
        that discovers new levels (e.g. a diamond variant) grows the same
        record; existing keys are kept (first writer wins, and equal keys
        imply equal solutions anyway).  Returns the merged record.
        """
        current = self.read_disk(fingerprint)
        if current is None:
            current = {
                "version": SKELETON_FORMAT_VERSION,
                "fingerprint": fingerprint,
                "solves": {},
                "farkas": {},
                "meta": {},
            }
        for skey, rec in solves.items():
            current["solves"].setdefault(skey, rec)
        if farkas:
            stored = current.setdefault("farkas", {})
            for label, rows in farkas.items():
                stored.setdefault(label, rows)
        if meta:
            current.setdefault("meta", {}).update(meta)
        current["meta"]["updated"] = time.time()
        self.put(fingerprint, json.dumps(current, sort_keys=True), current)
        return current


# -- resolution --------------------------------------------------------------

_STORES: dict[str, SkeletonStore] = {}
_STORES_LOCK = Lock()


def skeleton_store_from_env() -> Optional[SkeletonStore]:
    """The process-wide store for ``REPRO_SKELETON_CACHE``, or ``None``.

    Unset/empty disables the layer outright.  Stores are memoized per path
    so a warm worker keeps its in-memory tier and stats across the requests
    it serves.
    """
    path = os.environ.get("REPRO_SKELETON_CACHE", "").strip()
    if not path:
        return None
    with _STORES_LOCK:
        store = _STORES.get(path)
        if store is None:
            store = _STORES[path] = SkeletonStore(path)
        return store
