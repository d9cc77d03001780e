"""Structural warm-start: fingerprints, the skeleton store, replay parity.

Three layers:

* *fingerprint properties* (hypothesis) — the structural fingerprint must
  be invariant under everything a parameter sweep changes (program name,
  ``param_min`` values, schedule-irrelevant options) and must change under
  anything that reshapes the scheduling problem (statement body edits,
  domain-bound edits, schedule-relevant options);
* *store mechanics* — merge/get round-trips, invalid-record drops, the
  startup and opportunistic orphaned-tmp sweeps, env resolution;
* *replay parity* — a warm-started run must produce byte-identical
  schedule, tiled schedule, and generated code vs the cold run it
  shadows, for both the core scheduler and the diamond path, and the
  ``structural_path`` verdict must be miss / hit / fallback exactly when
  the store was empty / sufficient / value-invalidated.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import SchedulerStats
from repro.core.skeleton import (
    SKELETON_FORMAT_VERSION,
    SkeletonStore,
    WarmStart,
    skeleton_store_from_env,
    structural_fingerprint,
)
from repro.frontend import parse_program
from repro.frontend.serialize import program_to_dict
from repro.ilp.highs_backend import HighsSession
from repro.ilp.model import SolveStats
from repro.pipeline import PipelineOptions, optimize
from repro.workloads import get_workload


def _stencil(di: int, dj: int, name: str = "p", param_min=4) -> str:
    lb = max(0, -dj)
    src = f"""
    for (i = 0; i < N; i++)
        for (j = {lb}; j < N - {max(dj, 0)}; j++)
            A[i + {di}][j + {dj}] = 0.5 * A[i][j];
    """
    return parse_program(src, name, params=("N",), param_min=param_min)


def _fp(program, **overrides) -> str:
    options = PipelineOptions(**overrides)
    return structural_fingerprint(program_to_dict(program), options.as_dict())


@st.composite
def distance(draw):
    di = draw(st.integers(0, 2))
    dj = draw(st.integers(-2, 2))
    if di == 0 and dj <= 0:
        dj = 1
    return di, dj


class TestFingerprint:
    @given(distance(), st.integers(2, 100))
    @settings(max_examples=15, deadline=None)
    def test_invariant_under_rename_and_param_rescale(self, dist, pmin):
        """The whole point: a parameter sweep lands on one fingerprint."""
        di, dj = dist
        base = _fp(_stencil(di, dj, "orig", param_min=4))
        clone = _fp(_stencil(di, dj, "renamed-sweep-17", param_min=pmin))
        assert clone == base

    @given(distance(), distance())
    @settings(max_examples=15, deadline=None)
    def test_body_edit_changes_it(self, a, b):
        """Different access offsets → different dependence shape → new key."""
        fa, fb = _fp(_stencil(*a)), _fp(_stencil(*b))
        assert (fa == fb) == (a == b)

    def test_schedule_irrelevant_options_share_it(self):
        p = _stencil(1, 1)
        base = _fp(p)
        assert _fp(p, tile_size=64) == base
        assert _fp(p, tile=False) == base
        assert _fp(p, deps_cache=False) == base

    def test_schedule_relevant_options_split_it(self):
        p = _stencil(1, 1)
        base = _fp(p)
        assert _fp(p, coeff_bound=7) != base
        assert _fp(p, fuse="max") != base
        assert _fp(p, scheduler="quick") != base

    def test_domain_edit_changes_it(self):
        src = """
        for (i = 2; i < N; i++)
            A[i] = A[i-1];
        """
        shifted = parse_program(src, "p", params=("N",), param_min=4)
        assert _fp(shifted) != _fp(_stencil(1, 0))


class TestWarmStart:
    def test_lookup_record_forget(self):
        w = WarmStart({"k1": {"status": "optimal", "assignment": {}}})
        assert w.lookup("k1")["status"] == "optimal"
        assert w.lookup("nope") is None
        assert not w.dirty

        w.record("k2", {"status": "optimal", "assignment": {"c": "1"}})
        assert w.dirty and "k2" in w.solves
        w.dirty = False
        w.record("k2", {"status": "other"})  # first writer wins
        assert w.solves["k2"]["status"] == "optimal" and not w.dirty

        w.forget("k1")
        assert w.lookup("k1") is None and w.dirty

    def test_non_dict_record_is_not_served(self):
        w = WarmStart({"k": "garbage"})
        assert w.lookup("k") is None


class TestSkeletonStore:
    FP = "ab" + "0" * 62

    def _rec(self):
        return {"s1": {"status": "optimal", "assignment": {"x": "2"}}}

    def test_merge_get_roundtrip(self, tmp_path):
        store = SkeletonStore(tmp_path)
        assert store.get(self.FP) is None
        store.merge(self.FP, self._rec(), meta={"program": "p"},
                    farkas={"flow:a->a@A": [3, 2]})
        # fresh instance: must come back from disk
        again = SkeletonStore(tmp_path)
        rec = again.get(self.FP)
        assert rec["solves"] == self._rec()
        assert rec["farkas"] == {"flow:a->a@A": [3, 2]}
        assert rec["meta"]["program"] == "p"
        assert again.disk_len() == 1

    def test_merge_is_additive_first_writer_wins(self, tmp_path):
        store = SkeletonStore(tmp_path)
        store.merge(self.FP, {"s1": {"status": "optimal", "assignment": {}}})
        merged = store.merge(self.FP, {
            "s1": {"status": "other"},
            "s2": {"status": "optimal", "assignment": {"y": "1"}},
        })
        assert merged["solves"]["s1"]["status"] == "optimal"
        assert "s2" in merged["solves"]

    def test_invalid_record_dropped(self, tmp_path):
        store = SkeletonStore(tmp_path)
        path = store.path_for(self.FP)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ not json")
        assert store.get(self.FP) is None
        assert store.stats.invalid_dropped == 1
        assert not path.exists()

        path.write_text(json.dumps({
            "version": SKELETON_FORMAT_VERSION + 1, "solves": {},
        }))
        assert store.get(self.FP) is None
        assert store.stats.invalid_dropped == 2

    def test_startup_sweeps_old_tmp_only(self, tmp_path):
        sub = tmp_path / "ab"
        sub.mkdir()
        old = sub / f"{self.FP}.tmp.999"
        old.write_text("x")
        import os
        os.utime(old, (1, 1))
        young = sub / f"{self.FP}.tmp.998"
        young.write_text("y")

        store = SkeletonStore(tmp_path)
        assert store.stats.tmp_swept == 1
        assert not old.exists() and young.exists()

    def test_opportunistic_sweep_every_n_merges(self, tmp_path):
        import os
        store = SkeletonStore(tmp_path, sweep_every=2)
        orphan = tmp_path / "cd" / "orphan.tmp.999"
        orphan.parent.mkdir()
        orphan.write_text("x")
        os.utime(orphan, (1, 1))

        store.merge(self.FP, self._rec())          # put 1: not due
        assert orphan.exists()
        store.merge("cd" + "0" * 62, self._rec())  # put 2: sweeps
        assert not orphan.exists()
        assert store.stats.tmp_swept == 1

    def test_pre_primitive_directory_is_served(self, tmp_path):
        """A skeleton dir written before the store primitive stays warm."""
        import os

        # exactly what the hand-rolled SkeletonStore.merge left behind
        entry = tmp_path / self.FP[:2] / f"{self.FP}.json"
        entry.parent.mkdir()
        entry.write_text(json.dumps({
            "version": SKELETON_FORMAT_VERSION, "fingerprint": self.FP,
            "solves": self._rec(), "farkas": {}, "meta": {"updated": 1.0},
        }, sort_keys=True))
        orphan = entry.with_name(f"{self.FP}.tmp.4242")
        orphan.write_text("{")
        os.utime(orphan, (1, 1))

        store = SkeletonStore(tmp_path)
        assert store.path_for(self.FP) == entry
        assert store.get(self.FP)["solves"] == self._rec()
        assert store.stats.hits_disk == 1 and store.stats.tmp_swept == 1
        # a merge grows the parent's record in place
        merged = store.merge(self.FP, {"s2": {"status": "optimal"}})
        assert set(merged["solves"]) == {"s1", "s2"}
        assert set(json.loads(entry.read_text())["solves"]) == {"s1", "s2"}

    def test_memory_tier_serves_without_disk(self, tmp_path):
        store = SkeletonStore(tmp_path)
        store.merge(self.FP, self._rec())
        store.path_for(self.FP).unlink()
        assert store.get(self.FP)["solves"] == self._rec()  # memory hit

    def test_snapshot_shape(self, tmp_path):
        store = SkeletonStore(tmp_path)
        store.merge(self.FP, self._rec())
        snap = store.snapshot()
        assert snap["stores"] == 1 and snap["disk_entries"] == 1
        assert snap["root"] == str(tmp_path)


class TestEnvResolution:
    def test_unset_or_empty_disables(self, monkeypatch):
        monkeypatch.delenv("REPRO_SKELETON_CACHE", raising=False)
        assert skeleton_store_from_env() is None
        monkeypatch.setenv("REPRO_SKELETON_CACHE", "  ")
        assert skeleton_store_from_env() is None

    def test_memoized_per_path(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SKELETON_CACHE", str(tmp_path))
        assert skeleton_store_from_env() is skeleton_store_from_env()


class TestReplayParity:
    """Warm runs must be byte-identical to cold runs, not just legal."""

    def _same(self, a, b):
        assert a.schedule.to_dict() == b.schedule.to_dict()
        assert a.tiled.to_dict() == b.tiled.to_dict()
        assert a.code.python_source == b.code.python_source

    def test_miss_then_hit_identical(self, monkeypatch, tmp_path):
        p = _stencil(1, -1)
        opts = PipelineOptions()

        monkeypatch.delenv("REPRO_SKELETON_CACHE", raising=False)
        cold = optimize(_stencil(1, -1), opts)
        assert cold.scheduler_stats.structural_path is None

        monkeypatch.setenv("REPRO_SKELETON_CACHE", str(tmp_path))
        seed = optimize(p, opts)
        assert seed.scheduler_stats.structural_path == "miss"
        self._same(cold, seed)

        warm = optimize(
            _stencil(1, -1, "renamed"), PipelineOptions(tile_size=64)
        )
        assert warm.scheduler_stats.structural_path == "hit"
        assert warm.scheduler_stats.structural_warm_start > 0
        warm_dict, cold_dict = warm.schedule.to_dict(), cold.schedule.to_dict()
        assert warm_dict.pop("program") == "renamed"  # hit across the rename
        cold_dict.pop("program")
        assert warm_dict == cold_dict
        assert warm.code.python_source != cold.code.python_source  # tile_size

    def test_param_rescale_falls_back_identically(self, monkeypatch, tmp_path):
        opts = PipelineOptions()
        monkeypatch.setenv("REPRO_SKELETON_CACHE", str(tmp_path))
        seed = optimize(_stencil(1, -1), opts)
        assert seed.scheduler_stats.structural_path == "miss"

        monkeypatch.delenv("REPRO_SKELETON_CACHE")
        cold = optimize(_stencil(1, -1, param_min=40), opts)

        monkeypatch.setenv("REPRO_SKELETON_CACHE", str(tmp_path))
        fb = optimize(_stencil(1, -1, param_min=40), opts)
        assert fb.scheduler_stats.structural_path == "fallback"
        assert fb.scheduler_stats.structural_warm_start == 0
        self._same(cold, fb)

    def test_diamond_path_replays_identically(self, monkeypatch, tmp_path):
        w = get_workload("heat-1dp")
        opts = w.pipeline_options("plutoplus")

        monkeypatch.delenv("REPRO_SKELETON_CACHE", raising=False)
        cold = optimize(w.program(), opts)
        assert cold.used_diamond

        monkeypatch.setenv("REPRO_SKELETON_CACHE", str(tmp_path))
        seed = optimize(w.program(), opts)
        assert seed.scheduler_stats.structural_path == "miss"
        warm = optimize(w.program(), opts)
        assert warm.scheduler_stats.structural_path == "hit"
        assert warm.used_diamond
        self._same(cold, warm)

    @pytest.mark.parametrize("name", ["heat-1dp", "heat-2dp"])
    def test_records_do_not_depend_on_component_steps(self, name, monkeypatch, tmp_path):
        """Each recorded assignment is the lexmin's one optimum: diamond's
        ``ds.<S>`` binaries sit outside the objective order, but the ``c``s
        force them.  So a run whose lexmin steps ask HiGHS about the
        objective's component only records what whole-model steps record."""
        w = get_workload(name)
        opts = w.pipeline_options("plutoplus")
        fp = structural_fingerprint(program_to_dict(w.program()), opts.as_dict())
        component, restricted = HighsSession._component, []

        def counted(self, c, at):
            part = component(self, c, at)
            restricted.append(part is not None)
            return part

        def recorded(directory):
            monkeypatch.setenv("REPRO_SKELETON_CACHE", str(directory))
            result = optimize(w.program(), opts)
            assert result.used_diamond
            return skeleton_store_from_env().get(fp)["solves"]

        monkeypatch.setattr(HighsSession, "_component", counted)
        steps = recorded(tmp_path / "component")
        assert any(restricted)
        monkeypatch.setattr(HighsSession, "_component", lambda self, c, at: None)
        assert recorded(tmp_path / "whole") == steps
        assert any(
            var.startswith("ds.") for rec in steps.values() for var in rec.get("assignment", {})
        )

    def test_store_survives_poisoned_record(self, monkeypatch, tmp_path):
        """A corrupt stored assignment must fall back, not crash or skew."""
        monkeypatch.setenv("REPRO_SKELETON_CACHE", str(tmp_path))
        store = skeleton_store_from_env()
        seed = optimize(_stencil(1, 0), PipelineOptions())
        fp = structural_fingerprint(
            program_to_dict(_stencil(1, 0)), PipelineOptions().as_dict()
        )
        rec = store.get(fp)
        assert rec is not None and rec["solves"]
        poisoned = {
            k: {"status": "optimal", "assignment": {"bogus": "1"}}
            for k in rec["solves"]
        }
        store.merge(fp + "x", {})  # noop guard: wrong fp untouched below
        path = store.path_for(fp)
        rec["solves"] = poisoned
        path.write_text(json.dumps(rec))
        store._mem.clear()

        cold = optimize(_stencil(1, 0), PipelineOptions())
        assert cold.scheduler_stats.structural_path == "fallback"
        self._same(seed, cold)


class TestStatsCompat:
    def test_scheduler_stats_from_old_manifest(self):
        old = SchedulerStats().as_dict()
        old.pop("structural_warm_start")
        old.pop("structural_path")
        st = SchedulerStats.from_dict(old)
        assert st.structural_warm_start == 0
        assert st.structural_path is None

    def test_solve_stats_from_old_manifest(self):
        # the replay count a manifest before 1.34.0 also kept in ``solve``
        old = {**SolveStats().as_dict(), "structural_warm_start": 3}
        assert SolveStats.from_dict(old) == SolveStats()
