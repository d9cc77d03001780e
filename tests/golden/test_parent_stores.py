"""On-disk stores written by the parent commit: re-keyed or still warm.

``parent_stores/`` is what ``repro serve --cache-dir .. --skeleton-dir ..``
left behind at 52d0361 after answering ``repro client opt --workload
fig1-skew``; the parent of this change (15baf49, ``PIPELINE_VERSION`` 1)
wrote the same keys.  The emitted kernel text changed since, so
``PIPELINE_VERSION`` is 2: the parent's schedule-cache entry must not be
served (its ``python_source`` is the old emitter's) — the request is a miss
and is filled next to it.  ``SKELETON_FORMAT_VERSION`` did not move (no
schedule changed), so every per-level solve is still replayed from the
parent's skeleton record.  ``RESULT_FORMAT_VERSION`` 2 moved the cache key
again but not the skeleton stamp (it keeps ``result-v1``), and
``OptimizationResult.from_json`` still reads the parent's v1 entry.
``IR_FORMAT_VERSION`` 2 (statements lost their C-like ``text``) moved every
structural fingerprint, so the parent's skeleton record is a miss too; the
per-level solve keys read no text, and the record filled beside it holds
the parent's solves.
"""

import json
import shutil
from pathlib import Path

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
    # same schedule as the parent's entry, different emitted code; the
    # parent's file is left alone (a parent daemon may still be reading it)
    parent = OptimizationResult.from_json(parent_text)
    assert parent.tiled.to_dict() == served.tiled.to_dict()
    assert parent.code.python_source != served.code.python_source
    assert parent_file.read_text() == parent_text


def test_parent_skeleton_store_replays_every_solve(tmp_path, monkeypatch):
    root = shutil.copytree(PARENT / "skeleton", tmp_path / "skeleton")
    (parent_file,) = root.rglob("*.json")
    parent = json.loads(parent_file.read_text())
    monkeypatch.setenv("REPRO_SKELETON_CACHE", str(root))
    assert optimize("fig1-skew").scheduler_stats.structural_path == "miss"
    (refilled,) = set(root.rglob("*.json")) - {parent_file}
    assert json.loads(refilled.read_text())["solves"] == parent["solves"]
    stats = optimize("fig1-skew").scheduler_stats
    assert stats.structural_path == "hit"
    assert stats.structural_warm_start == 2
