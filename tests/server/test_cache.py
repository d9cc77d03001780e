"""Tests for the two-tier content-addressed schedule cache."""

import json
import time

import pytest

from repro.pipeline import RESULT_FORMAT_VERSION
from repro.server.cache import ScheduleCache, cache_key, canonical_request

PROGRAM = {"name": "p", "statements": [{"text": "A[i] = A[i-1];"}]}
OPTIONS = {"algorithm": "plutoplus", "tile": True, "tile_size": 32}


def _payload(marker="x"):
    """A minimal valid cache value (format version is all _valid checks)."""
    return json.dumps({"version": RESULT_FORMAT_VERSION, "marker": marker})


class TestCacheKey:
    def test_deterministic(self):
        assert cache_key(PROGRAM, OPTIONS) == cache_key(PROGRAM, OPTIONS)

    def test_key_is_hex_sha256(self):
        key = cache_key(PROGRAM, OPTIONS)
        assert len(key) == 64
        int(key, 16)  # raises on non-hex

    def test_insensitive_to_dict_ordering(self):
        shuffled = dict(reversed(list(OPTIONS.items())))
        assert cache_key(PROGRAM, shuffled) == cache_key(PROGRAM, OPTIONS)

    def test_sensitive_to_any_option_change(self):
        base = cache_key(PROGRAM, OPTIONS)
        assert cache_key(PROGRAM, {**OPTIONS, "tile_size": 64}) != base

    def test_sensitive_to_program_change(self):
        other = {**PROGRAM, "statements": [{"text": "A[i] = 0;"}]}
        assert cache_key(other, OPTIONS) != cache_key(PROGRAM, OPTIONS)

    def test_folds_in_pipeline_fingerprint(self, monkeypatch):
        base = cache_key(PROGRAM, OPTIONS)
        monkeypatch.setattr(
            "repro.server.cache.pipeline_fingerprint",
            lambda scheduler=None: "pipeline-v999",
        )
        assert cache_key(PROGRAM, OPTIONS) != base

    def test_scheduler_modes_never_share_a_key(self):
        # same IR, same options except the resolved scheduler mode: the
        # fingerprint segment keeps quick/auto/exact results apart even
        # though quick-won and exact schedules can differ
        keys = {
            mode: cache_key(PROGRAM, {**OPTIONS, "scheduler": mode})
            for mode in ("exact", "quick", "auto")
        }
        assert len(set(keys.values())) == 3
        # an options dict predating the field resolves to the exact segment
        legacy = json.loads(canonical_request(PROGRAM, OPTIONS))["pipeline"]
        explicit = json.loads(
            canonical_request(PROGRAM, {**OPTIONS, "scheduler": "exact"})
        )["pipeline"]
        assert legacy == explicit

    def test_scheduler_mode_lands_in_the_fingerprint_not_just_options(self):
        quick = canonical_request(PROGRAM, {**OPTIONS, "scheduler": "quick"})
        exact = canonical_request(PROGRAM, {**OPTIONS, "scheduler": "exact"})
        assert json.loads(quick)["pipeline"] != json.loads(exact)["pipeline"]

    def test_canonical_text_is_compact_and_sorted(self):
        text = canonical_request(PROGRAM, OPTIONS)
        assert ": " not in text and ", " not in text
        assert json.loads(text)["options"] == OPTIONS


class TestTiers:
    def test_miss_then_memory_hit(self, tmp_path):
        cache = ScheduleCache(tmp_path / "c")
        key = cache_key(PROGRAM, OPTIONS)
        assert cache.get(key) == (None, None)
        cache.put(key, _payload())
        assert cache.get(key) == (_payload(), "memory")
        assert cache.stats.misses == 1
        assert cache.stats.hits_memory == 1
        assert cache.stats.stores == 1

    def test_disk_survives_new_instance_and_promotes(self, tmp_path):
        key = cache_key(PROGRAM, OPTIONS)
        ScheduleCache(tmp_path / "c").put(key, _payload("cold"))

        reborn = ScheduleCache(tmp_path / "c")
        assert reborn.get(key) == (_payload("cold"), "disk")
        # promoted into the memory tier on the way through
        assert reborn.get(key) == (_payload("cold"), "memory")
        assert reborn.stats.hits_disk == 1
        assert reborn.stats.hits_memory == 1

    def test_memory_only_mode(self):
        cache = ScheduleCache(None)
        key = cache_key(PROGRAM, OPTIONS)
        cache.put(key, _payload())
        assert cache.get(key) == (_payload(), "memory")
        assert cache.path_for(key) is None
        assert cache.disk_len() == 0

    def test_memory_tier_disabled(self, tmp_path):
        cache = ScheduleCache(tmp_path / "c", memory_entries=0)
        key = cache_key(PROGRAM, OPTIONS)
        cache.put(key, _payload())
        assert cache.get(key) == (_payload(), "disk")
        assert cache.get(key) == (_payload(), "disk")
        assert cache.memory_len() == 0

    def test_memory_lru_eviction(self, tmp_path):
        cache = ScheduleCache(tmp_path / "c", memory_entries=2)
        keys = [cache_key(PROGRAM, {**OPTIONS, "tile_size": n}) for n in (1, 2, 3)]
        for k in keys:
            cache.put(k, _payload(k[:8]))
        assert cache.memory_len() == 2
        assert cache.stats.evictions == 1
        # the evicted entry falls back to the disk tier
        assert cache.get(keys[0]) == (_payload(keys[0][:8]), "disk")
        assert cache.get(keys[2])[1] == "memory"


class TestDiskHygiene:
    def test_atomic_write_leaves_no_tmp_files(self, tmp_path):
        cache = ScheduleCache(tmp_path / "c")
        key = cache_key(PROGRAM, OPTIONS)
        cache.put(key, _payload())
        leftovers = [
            p for p in (tmp_path / "c").rglob("*") if ".tmp" in p.name
        ]
        assert leftovers == []
        assert cache.path_for(key).read_text() == _payload()

    def test_corrupt_file_dropped_as_miss(self, tmp_path):
        cache = ScheduleCache(tmp_path / "c")
        key = cache_key(PROGRAM, OPTIONS)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{truncated by a killed writ")
        assert cache.get(key) == (None, None)
        assert cache.stats.invalid_dropped == 1
        assert not path.exists()

    def test_foreign_version_dropped_as_miss(self, tmp_path):
        cache = ScheduleCache(tmp_path / "c")
        key = cache_key(PROGRAM, OPTIONS)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"version": RESULT_FORMAT_VERSION + 999}))
        assert cache.get(key) == (None, None)
        assert cache.stats.invalid_dropped == 1
        assert not path.exists()

    def test_startup_sweeps_stale_tmp_files(self, tmp_path):
        import os

        root = tmp_path / "c"
        key = cache_key(PROGRAM, OPTIONS)
        first = ScheduleCache(root)
        first.put(key, _payload())
        # a writer killed between write and rename leaves these behind
        stale = root / key[:2] / f"{key}.tmp.12345"
        stale.write_text("{half a payl")
        old = time.time() - 3600
        os.utime(stale, (old, old))

        reborn = ScheduleCache(root)
        assert not stale.exists()
        assert reborn.stats.tmp_swept == 1
        assert reborn.snapshot()["tmp_swept"] == 1
        # the real entry is untouched
        assert reborn.get(key) == (_payload(), "disk")

    def test_sweep_spares_fresh_tmp_files(self, tmp_path):
        root = tmp_path / "c"
        key = cache_key(PROGRAM, OPTIONS)
        ScheduleCache(root).put(key, _payload())
        # a *fresh* tmp may belong to a live writer sharing the directory
        fresh = root / key[:2] / f"{key}.tmp.54321"
        fresh.write_text("{in progress")

        reborn = ScheduleCache(root)
        assert fresh.exists()
        assert reborn.stats.tmp_swept == 0

    def test_sweep_noop_on_fresh_directory(self, tmp_path):
        cache = ScheduleCache(tmp_path / "new")
        assert cache.stats.tmp_swept == 0

    def test_opportunistic_sweep_every_n_puts(self, tmp_path):
        """A long-lived daemon must reclaim orphans left *after* startup —
        the startup-only sweep used to let them accumulate forever."""
        import os

        root = tmp_path / "c"
        cache = ScheduleCache(root, sweep_every=2)
        key = cache_key(PROGRAM, OPTIONS)
        orphan = root / key[:2] / f"{key}.tmp.99999"
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_text("{half a payl")
        old = time.time() - 3600
        os.utime(orphan, (old, old))

        cache.put(key, _payload())          # put 1: not due yet
        assert orphan.exists()
        cache.put("ab" + "0" * 62, _payload())  # put 2: sweep fires
        assert not orphan.exists()
        assert cache.stats.tmp_swept == 1

    def test_opportunistic_sweep_spares_fresh_tmp(self, tmp_path):
        root = tmp_path / "c"
        cache = ScheduleCache(root, sweep_every=1)
        key = cache_key(PROGRAM, OPTIONS)
        fresh = root / key[:2] / f"{key}.tmp.99999"
        fresh.parent.mkdir(parents=True, exist_ok=True)
        fresh.write_text("{in progress")

        cache.put(key, _payload())  # due immediately, but file is young
        assert fresh.exists()
        assert cache.stats.tmp_swept == 0

    def test_snapshot_reports_both_tiers(self, tmp_path):
        cache = ScheduleCache(tmp_path / "c", memory_entries=5)
        cache.put(cache_key(PROGRAM, OPTIONS), _payload())
        snap = cache.snapshot()
        assert snap["memory_entries"] == 1
        assert snap["memory_capacity"] == 5
        assert snap["disk_entries"] == 1
        assert snap["stores"] == 1
        assert snap["cache_dir"] == str(tmp_path / "c")


class TestParentLayout:
    """A cache dir written before the store primitive existed stays warm."""

    def test_pre_primitive_directory_is_served_and_swept(self, tmp_path):
        import os

        root = tmp_path / "c"
        key = cache_key(PROGRAM, OPTIONS)
        # exactly what the hand-rolled ScheduleCache.put left behind ...
        entry = root / key[:2] / f"{key}.json"
        entry.parent.mkdir(parents=True)
        entry.write_text(_payload("from-the-parent"))
        # ... including one of its `<key>.tmp.<pid>` orphans
        orphan = root / key[:2] / f"{key}.tmp.4242"
        orphan.write_text("{half a pay")
        os.utime(orphan, (1, 1))

        cache = ScheduleCache(root)
        assert cache.path_for(key) == entry
        assert cache.get(key) == (_payload("from-the-parent"), "disk")
        assert cache.stats.tmp_swept == 1 and not orphan.exists()
        assert cache.disk_len() == 1

    def test_failed_disk_write_degrades_to_memory_only(self, tmp_path):
        root = tmp_path / "c"
        cache = ScheduleCache(root)
        root.rmdir()
        root.write_text("a file where the cache root was")
        key = cache_key(PROGRAM, OPTIONS)
        cache.put(key, _payload())               # must not raise
        assert cache.stats.store_errors == 1
        assert cache.get(key) == (_payload(), "memory")
        assert cache.snapshot()["store_errors"] == 1


class TestStats:
    def test_hit_rate(self, tmp_path):
        cache = ScheduleCache(tmp_path / "c")
        key = cache_key(PROGRAM, OPTIONS)
        cache.get(key)          # miss
        cache.put(key, _payload())
        cache.get(key)          # memory hit
        assert cache.stats.lookups == 2
        assert cache.stats.hit_rate == pytest.approx(0.5)
        assert cache.stats.as_dict()["hit_rate"] == pytest.approx(0.5)
