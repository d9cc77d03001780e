"""On-disk stores written by an older build: misses, refilled beside it.

``parent_stores/`` is what ``repro serve --cache-dir .. --skeleton-dir ..``
left behind at 52d0361 after answering ``repro client opt --workload
fig1-skew``: a result of format v1 holding a program of IR v1, and a
skeleton record keyed by that build's structural fingerprint and solve keys.
Since 1.37.0 a build reads only the formats it writes, and every options
dict holds every ``PipelineOptions`` field and nothing else (no retired
``"ilp_backend": "highs"``), so every cache key, structural fingerprint and
per-level solve key moved.  Both stores are caches: the parent's entries
are never looked up, the request is a miss, and the fresh entry is filled
next to them; a parent daemon may still be reading its files, so they are
left alone.  Read directly, the parent's result is refused by name.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.pipeline import OptimizationResult, optimize
from repro.server.cache import ScheduleCache, cache_key
from repro.server.resolve import resolve_optimize

PARENT = Path(__file__).with_name("parent_stores")


def test_parent_schedule_cache_directory_is_a_miss_and_refilled(tmp_path):
    root = shutil.copytree(PARENT / "cache", tmp_path / "cache")
    (parent_file,) = root.rglob("*.json")
    parent_text = parent_file.read_text()
    key = cache_key(*resolve_optimize({"workload": "fig1-skew"}))
    assert key != parent_file.stem
    cache = ScheduleCache(root)
    assert cache.get(key) == (None, None)
    fresh = optimize("fig1-skew")
    cache.put(key, fresh.to_json())
    text, tier = ScheduleCache(root).get(key)
    assert tier == "disk"
    served = OptimizationResult.from_json(text)
    assert served.code.python_source == fresh.code.python_source
    with pytest.raises(ValueError, match="format v1, this build reads v3"):
        OptimizationResult.from_json(parent_text)
    assert parent_file.read_text() == parent_text


def test_parent_skeleton_store_replays_every_solve(tmp_path, monkeypatch):
    """The parent's record is a miss; the record filled beside it holds the
    parent's solutions under the new solve keys and replays every solve."""
    root = shutil.copytree(PARENT / "skeleton", tmp_path / "skeleton")
    (parent_file,) = root.rglob("*.json")
    parent_text = parent_file.read_text()
    monkeypatch.setenv("REPRO_SKELETON_CACHE", str(root))
    assert optimize("fig1-skew").scheduler_stats.structural_path == "miss"
    (refilled,) = set(root.rglob("*.json")) - {parent_file}
    solves = json.loads(refilled.read_text())["solves"]
    parent_solves = json.loads(parent_text)["solves"]
    assert not set(solves) & set(parent_solves)
    assert sorted(map(json.dumps, solves.values())) == sorted(
        map(json.dumps, parent_solves.values())
    )
    stats = optimize("fig1-skew").scheduler_stats
    assert stats.structural_path == "hit"
    assert stats.structural_warm_start == 2
    assert parent_file.read_text() == parent_text
