"""The two-tier content-addressed schedule cache.

Tier 1 is an in-memory LRU of recently served result payloads; tier 2 is
an on-disk store (``<cache-dir>/<k[:2]>/<key>.json``) that survives daemon
restarts.  Both tiers, the atomic writes and the orphan sweeps are
:class:`repro.store.AtomicStore`; this module supplies the key and the
validity rule.  Both tiers are keyed by :func:`cache_key`:

    sha256( canonical JSON of {program: serialized IR,
                               options: resolved PipelineOptions,
                               pipeline: pipeline_fingerprint(scheduler)} )

The program is the *serialized IR*, not the workload name — two names
producing the same program share one entry, and a workload whose factory
changes stops hitting stale entries automatically.  Options are the fully
resolved dict (every field, not just overrides), so any option change is a
different key.  The fingerprint folds in ``PIPELINE_VERSION``, the
IR/result format versions, and the resolved scheduler mode (plus the quick
heuristic's own version for ``quick``/``auto``), so a pipeline that could
emit different schedules — or payloads an old reader cannot parse — never
serves old entries; ``quick`` and ``exact`` runs of the same program never
share an entry.  Content addressing means there is no invalidation protocol at
all: stale entries are simply never looked up again, and ``cache-dir`` can
be deleted wholesale at any time.

Values are the exact ``OptimizationResult.to_json()`` text the worker
produced, stored verbatim — a warm response is byte-identical to the cold
one.  Disk reads are verified (parseable JSON with the expected format
version) and a corrupt or foreign-version file is treated as a miss and
removed, so a crashed writer or a downgrade cannot wedge the daemon.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Optional

from repro.pipeline import RESULT_FORMAT_VERSION, pipeline_fingerprint
from repro.store import TMP_SWEEP_EVERY, AtomicStore

__all__ = ["ScheduleCache", "cache_key", "canonical_request"]

DEFAULT_MEMORY_ENTRIES = 128


def canonical_request(program_dict: dict, options_dict: dict) -> str:
    """The canonical text hashed into the cache key (stable across runs)."""
    return json.dumps(
        {
            "program": program_dict,
            "options": options_dict,
            "pipeline": pipeline_fingerprint(
                options_dict.get("scheduler", "exact")
            ),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def cache_key(program_dict: dict, options_dict: dict) -> str:
    """Content address of one scheduling request (hex sha256)."""
    text = canonical_request(program_dict, options_dict)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load(text: str) -> Optional[str]:
    """Serve the stored text verbatim iff it parses as a current result."""
    try:
        payload = json.loads(text)
    except ValueError:
        return None
    if isinstance(payload, dict) and payload.get("version") == RESULT_FORMAT_VERSION:
        return text
    return None


class ScheduleCache(AtomicStore[str]):
    """The schedule tier of :class:`~repro.store.AtomicStore`; thread-safe.

    ``cache_dir=None`` runs memory-only (tests, ``--cache-dir ''``);
    ``memory_entries=0`` disables tier 1 (every hit re-reads disk).
    """

    def __init__(
        self,
        cache_dir: Optional[os.PathLike],
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
        sweep_every: int = TMP_SWEEP_EVERY,
    ):
        if cache_dir is not None:
            # fail at startup, not at the first put, on an unusable root
            Path(cache_dir).mkdir(parents=True, exist_ok=True)
        super().__init__(
            cache_dir, ".json", _load,
            memory_entries=memory_entries, sweep_every=sweep_every,
        )

    def get(self, key: str) -> tuple[Optional[str], Optional[str]]:
        """Return ``(result_text, tier)``; ``(None, None)`` on a miss."""
        return self.fetch(key)

    def snapshot(self) -> dict:
        snap = super().snapshot()
        snap["cache_dir"] = snap.pop("root")
        return snap
