"""Tests for the atomic store primitive (:mod:`repro.store`).

The four stores that sit on it (schedule cache, skeleton store, artifact
cache, suite manifest) each keep their own behavioural tests; these pin
what only the primitive itself decides: temporary naming, the publish
context manager's cleanup, and multi-file publishes.
"""

import os

import pytest

from repro.store import (
    AtomicStore,
    StoreStats,
    atomic_publish,
    atomic_write_text,
    tmp_path_for,
)


class TestTmpNaming:
    def test_keeps_the_real_suffix_and_carries_the_pid(self, tmp_path):
        tmp = tmp_path_for(tmp_path / "ab" / "abcd.c")
        assert tmp.parent == tmp_path / "ab"
        assert tmp.suffix == ".c"                 # cc picks the language by it
        assert tmp.name == f"abcd.tmp.{os.getpid()}.c"

    def test_every_tmp_name_matches_the_sweep_pattern(self, tmp_path):
        store = AtomicStore(tmp_path, ".json", load=str)
        for suffix in (".json", ".so", ".c"):
            tmp = tmp_path_for(store.path_for("ab" + "0" * 62, suffix))
            tmp.parent.mkdir(exist_ok=True)
            tmp.write_text("x")
            os.utime(tmp, (1, 1))
        assert store.sweep() == 3


class TestAtomicPublish:
    def test_write_creates_parents_and_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "a" / "b" / "manifest.json"
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")            # replaces, atomically
        assert path.read_text() == "two"
        assert [p.name for p in path.parent.iterdir()] == ["manifest.json"]

    def test_raise_inside_publishes_nothing_and_cleans_up(self, tmp_path):
        a, b = tmp_path / "k.c", tmp_path / "k.so"
        with pytest.raises(RuntimeError, match="cc died"):
            with atomic_publish(a, b) as (tmp_a, tmp_b):
                tmp_a.write_text("int x;")
                tmp_b.write_text("partial")
                raise RuntimeError("cc died")
        assert list(tmp_path.iterdir()) == []

    def test_all_paths_published_together(self, tmp_path):
        a, b = tmp_path / "k.c", tmp_path / "k.so"
        with atomic_publish(a, b) as (tmp_a, tmp_b):
            tmp_a.write_text("int x;")
            tmp_b.write_text("elf")
            assert not a.exists() and not b.exists()
        assert (a.read_text(), b.read_text()) == ("int x;", "elf")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k.c", "k.so"]


class TestStoreStats:
    def test_one_stats_class_for_every_store(self, tmp_path):
        from repro.core.skeleton import SkeletonStore
        from repro.exec import ArtifactCache
        from repro.server.cache import ScheduleCache

        for store in (ScheduleCache(tmp_path / "c"),
                      SkeletonStore(tmp_path / "s"),
                      ArtifactCache(tmp_path / "a")):
            assert type(store.stats) is StoreStats

    def test_undecodable_file_is_dropped_like_any_invalid_one(self, tmp_path):
        store = AtomicStore(tmp_path, ".json", load=lambda text: text)
        path = store.path_for("ab" + "0" * 62)
        path.parent.mkdir()
        path.write_bytes(b"\xff\xfe\x00 not utf-8")
        assert store.fetch("ab" + "0" * 62) == (None, None)
        assert store.stats.invalid_dropped == 1 and not path.exists()
