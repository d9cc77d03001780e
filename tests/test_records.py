"""The seven stats records serialize through one rule (``repro.records``).

The JSON strings below were captured from the hand-written ``as_dict``
methods at commit ca78b9e, every field set to a non-default value, less the
keys of the fields removed since (docs/API.md, "Removed in 1.34.0"); key
order is part of the contract (manifests and cached payloads are compared
byte for byte).
"""

import json
from dataclasses import fields

import pytest

from repro.core.scheduler import SchedulerStats
from repro.deps.analysis import DepStats
from repro.exec.options import ExecStats
from repro.ilp.model import SolveStats
from repro.pipeline import TimingBreakdown
from repro.polyhedra.cache import PolyCacheStats
from repro.store import StoreStats


def _solve():
    return SolveStats(
        simplex_pivots=1, bb_nodes=2, lp_solves=3, warm_starts=4,
        shortcut_hits=5, probe_hits=6, dedup_rows=7, models_reused=8,
        solve_seconds=10.5,
    )


_SOLVE_JSON = (
    '{"simplex_pivots": 1, "bb_nodes": 2, "lp_solves": 3, "warm_starts": 4, '
    '"shortcut_hits": 5, "probe_hits": 6, "dedup_rows": 7, "models_reused": 8, '
    '"solve_seconds": 10.5}'
)

FULL = {
    "SolveStats": (_solve(), _SOLVE_JSON),
    "DepStats": (
        DepStats(
            pairs_tested=1, deps_found=2, fast_rejects=3, cache_hits=4,
            cache_misses=5, fm_saved=6, cache_evictions=7,
            analysis_seconds=8.5, rar_deps=9,
        ),
        '{"pairs_tested": 1, "deps_found": 2, "fast_rejects": 3, '
        '"cache_hits": 4, "cache_misses": 5, "fm_saved": 6, '
        '"cache_evictions": 7, "analysis_seconds": 8.5, "rar_deps": 9}',
    ),
    "SchedulerStats": (
        SchedulerStats(
            ilp_solves=1, ilp_variables_max=2, hyperplanes_found=3, cuts=4,
            sat_batched=5, solve=_solve(), scheduler_mode="v9", scheduler_path="v10",
            fallback_reason="s11", quick_candidates=12, quick_validations=13,
            quick_seconds=14.5, fusion_groups=[["S1", "S2"], ["S3"]],
            structural_warm_start=16, structural_path="s17",
            reductions_detected=18, reductions_relaxed=19,
        ),
        '{"ilp_solves": 1, "ilp_variables_max": 2, "hyperplanes_found": 3, '
        '"cuts": 4, "sat_batched": 5, "solve": ' + _SOLVE_JSON + ', '
        '"scheduler_mode": "v9", "scheduler_path": "v10", '
        '"fallback_reason": "s11", "quick_candidates": 12, '
        '"quick_validations": 13, "quick_seconds": 14.5, '
        '"fusion_groups": [["S1", "S2"], ["S3"]], '
        '"structural_warm_start": 16, "structural_path": "s17", '
        '"reductions_detected": 18, "reductions_relaxed": 19}',
    ),
    "ExecStats": (
        ExecStats(
            backend_requested="v1", backend="v2", fallback_reason="s3",
            compile_seconds=4.5, exec_seconds=5.5, marshal_seconds=6.5,
            artifact_cache="s7", artifact_key="s8", compiler="s9", omp=True,
            threads=11,
        ),
        '{"backend_requested": "v1", "backend": "v2", "fallback_reason": "s3", '
        '"compile_seconds": 4.5, "exec_seconds": 5.5, "marshal_seconds": 6.5, '
        '"artifact_cache": "s7", "artifact_key": "s8", "compiler": "s9", '
        '"omp": true, "threads": 11}',
    ),
    "TimingBreakdown": (
        TimingBreakdown(
            dependence_analysis=1.5, auto_transformation=2.5,
            code_generation=3.5, misc=4.5,
        ),
        '{"dependence_analysis": 1.5, "auto_transformation": 2.5, '
        '"code_generation": 3.5, "misc": 4.5, "total": 12.0}',
    ),
    "PolyCacheStats": (
        PolyCacheStats(
            empty_lookups=1, empty_hits=2, min_lookups=3, min_hits=4,
            lexmin_lookups=5, lexmin_hits=6, project_lookups=7, project_hits=8,
            fast_rejects=9, evictions=10, prune_lookups=11, prune_hits=12,
            prune_rule_rows=13, prune_lp_solves=14, min_by_rule=15,
            cone_lookups=16, cone_hits=17, relations_lookups=18,
            relations_hits=19,
        ),
        '{"empty_lookups": 1, "empty_hits": 2, "min_lookups": 3, "min_hits": 4, '
        '"lexmin_lookups": 5, "lexmin_hits": 6, "project_lookups": 7, '
        '"project_hits": 8, "fast_rejects": 9, "evictions": 10, '
        '"prune_lookups": 11, "prune_hits": 12, "prune_rule_rows": 13, '
        '"prune_lp_solves": 14, "min_by_rule": 15, "cone_lookups": 16, '
        '"cone_hits": 17, "relations_lookups": 18, "relations_hits": 19}',
    ),
    "StoreStats": (
        StoreStats(
            hits_memory=1, hits_disk=2, misses=3, stores=4, store_errors=5,
            evictions=6, invalid_dropped=7, tmp_swept=8,
        ),
        '{"hits_memory": 1, "hits_disk": 2, "misses": 3, "stores": 4, '
        '"store_errors": 5, "evictions": 6, "invalid_dropped": 7, '
        '"tmp_swept": 8, "lookups": 6, "hit_rate": 0.5}',
    ),
}


@pytest.mark.parametrize("name", sorted(FULL))
def test_as_dict_matches_parent_bytes(name):
    record, expected = FULL[name]
    assert json.dumps(record.as_dict()) == expected


@pytest.mark.parametrize("name", sorted(FULL))
def test_from_dict_round_trips_and_ignores_derived_keys(name):
    record, expected = FULL[name]
    # as_dict may carry derived keys (total, lookups, hit_rate): unknown to
    # from_dict, hence ignored
    assert type(record).from_dict(json.loads(expected)) == record


@pytest.mark.parametrize("name", sorted(FULL))
def test_absent_key_takes_default_unknown_key_ignored(name):
    cls = type(FULL[name][0])
    assert cls.from_dict({}) == cls()
    assert cls.from_dict({"not_a_field": 1}) == cls()


def test_omitted_at_default_keeps_historical_shapes():
    assert "rar_deps" not in DepStats(deps_found=3).as_dict()
    assert "reductions_detected" not in SchedulerStats().as_dict()
    # the reductions pair appears together as soon as either is in use
    shape = SchedulerStats(reductions_detected=2).as_dict()
    assert (shape["reductions_detected"], shape["reductions_relaxed"]) == (2, 0)
    assert list(shape)[-2:] == ["reductions_detected", "reductions_relaxed"]


def test_merge_adds_counters_and_merges_nested():
    total, other = SchedulerStats(), FULL["SchedulerStats"][0]
    total.merge(other)
    total.merge(other)
    assert total.ilp_solves == 2 and total.quick_seconds == 29.0
    assert total.solve.lp_solves == 6 and total.solve.solve_seconds == 21.0
    # labels are not accumulated
    assert total.scheduler_mode == "exact" and total.fusion_groups == []
    # and the merged-from record is untouched
    assert json.dumps(other.as_dict()) == FULL["SchedulerStats"][1]


def test_snapshot_and_delta():
    base = FULL["PolyCacheStats"][0]
    stats = base.snapshot()
    assert stats == base and stats is not base
    stats.empty_lookups += 5
    assert stats.delta_since(base) == PolyCacheStats(empty_lookups=5)


def test_each_solver_fact_is_recorded_once():
    """A counter kept in both ``SchedulerStats`` and the ``SolveStats``
    nested in it is one fact stored twice; ``TimingBreakdown`` holds the
    four Fig. 5 stages whose sum is ``total``, and nothing beside them."""
    names = {f.name for f in fields(SchedulerStats)}
    assert names & {f.name for f in fields(SolveStats)} == set()
    assert [f.name for f in fields(TimingBreakdown)] == [
        "dependence_analysis", "auto_transformation", "code_generation", "misc",
    ]
