"""On-disk stores written by the parent commit stay warm.

``parent_stores/`` is what ``repro serve --cache-dir .. --skeleton-dir ..``
left behind at 52d0361 (the last commit with the seed-reproduction switch)
after answering ``repro client opt --workload fig1-skew``.  Neither
``PIPELINE_VERSION`` nor ``SKELETON_FORMAT_VERSION`` moved since, so the
same request must be a schedule-cache hit and every per-level solve must be
replayed from the skeleton record.
"""

import shutil
from pathlib import Path

from repro.pipeline import OptimizationResult, optimize
from repro.server.cache import ScheduleCache, cache_key
from repro.server.resolve import resolve_optimize

PARENT = Path(__file__).with_name("parent_stores")


def test_parent_schedule_cache_directory_is_a_hit(tmp_path):
    root = shutil.copytree(PARENT / "cache", tmp_path / "cache")
    key = cache_key(*resolve_optimize({"workload": "fig1-skew"}))
    text, tier = ScheduleCache(root).get(key)
    assert tier == "disk"
    served = OptimizationResult.from_json(text)
    fresh = optimize("fig1-skew")
    assert served.schedule.to_dict() == fresh.schedule.to_dict()
    assert served.tiled.to_dict() == fresh.tiled.to_dict()
    assert served.code.python_source == fresh.code.python_source


def test_parent_skeleton_store_replays_every_solve(tmp_path, monkeypatch):
    root = shutil.copytree(PARENT / "skeleton", tmp_path / "skeleton")
    monkeypatch.setenv("REPRO_SKELETON_CACHE", str(root))
    stats = optimize("fig1-skew").scheduler_stats
    assert stats.structural_path == "hit"
    assert stats.structural_warm_start == 2
