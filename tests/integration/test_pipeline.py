"""Tests for the end-to-end pipeline module and the C emitter."""

import json
import pickle
from pathlib import Path

import pytest

from repro.codegen import generate_c_kernel
from repro.frontend import parse_program
from repro.frontend.serialize import program_to_dict
from repro.pipeline import (
    RESULT_FORMAT_VERSION,
    OptimizationResult,
    PipelineOptions,
    optimize,
)
from repro.polyhedra.cache import global_cache
from repro.workloads import get_workload

SIMPLE = """
for (i = 0; i < N; i++)
    for (j = 0; j < N; j++)
        A[i+1][j+1] = 0.5 * A[i][j];
"""


class TestPipeline:
    def test_timing_breakdown_sums(self):
        p = parse_program(SIMPLE, "p", params=("N",))
        res = optimize(p, PipelineOptions())
        t = res.timing
        assert t.total == pytest.approx(
            t.dependence_analysis + t.auto_transformation + t.code_generation + t.misc
        )
        assert t.total > 0

    def test_no_tile_option(self):
        p = parse_program(SIMPLE, "p", params=("N",))
        res = optimize(p, PipelineOptions(tile=False))
        assert res.tiled.tile_levels() == []

    def test_tile_size_respected(self):
        p = parse_program(SIMPLE, "p", params=("N",))
        res = optimize(p, PipelineOptions(tile_size=8))
        sizes = {r.tile_size for r in res.tiled.rows if r.kind == "tile"}
        assert sizes == {8}

    def test_iss_off_by_default(self):
        w = get_workload("heat-1dp")
        res = optimize(w.program(), PipelineOptions(algorithm="plutoplus"))
        assert not res.used_iss  # --iss not passed
        assert res.program is res.source_program

    def test_diamond_requires_flag(self):
        w = get_workload("heat-1dp")
        res = optimize(w.program(), PipelineOptions(algorithm="plutoplus", iss=True))
        assert res.used_iss and not res.used_diamond

    def test_summary_text(self):
        p = parse_program(SIMPLE, "p", params=("N",))
        res = optimize(p, PipelineOptions())
        text = res.summary()
        assert "p [plutoplus]" in text and "timing" in text

    def test_scheduler_stats_cover_diamond(self):
        w = get_workload("heat-1dp")
        res = optimize(w.program(), w.pipeline_options("plutoplus"))
        assert res.used_diamond
        # the diamond path's internal scheduler reports into the shared stats
        assert res.scheduler_stats is not None
        assert res.scheduler_stats.ilp_solves > 0
        assert res.scheduler_stats.solve.solve_seconds > 0


class TestPipelineInputs:
    def test_string_input_resolves_workload(self):
        res = optimize("fig1-skew", PipelineOptions(tile=False))
        assert res.source_program.name == get_workload("fig1-skew").program().name
        assert res.schedule.depth > 0

    def test_string_input_unknown_workload(self):
        with pytest.raises(KeyError, match="unknown workload"):
            optimize("nope-kernel")

    def test_non_program_input_rejected(self):
        with pytest.raises(TypeError, match="Program or a workload name"):
            optimize(123)

    def test_dep_stats_populated(self):
        p = parse_program(SIMPLE, "p", params=("N",))
        global_cache().clear()  # an earlier test's analysis would be a hit
        res = optimize(p, PipelineOptions(tile=False))
        assert res.dep_stats is not None
        assert res.dep_stats.pairs_tested > 0
        assert res.dep_stats.deps_found > 0
        assert res.timing.dependence_analysis == pytest.approx(
            res.dep_stats.analysis_seconds
        )

    def test_deps_cache_off_matches_default(self):
        p = parse_program(SIMPLE, "p", params=("N",))
        base = optimize(p, PipelineOptions(tile=False))
        off = optimize(p, PipelineOptions(tile=False, deps_cache=False))
        assert off.dep_stats.lookups == 0
        assert off.dep_stats.fast_rejects == 0
        assert off.schedule.pretty() == base.schedule.pretty()


class TestPipelineOptionValidation:
    def test_tile_size_zero_rejected(self):
        with pytest.raises(ValueError, match="tile_size"):
            PipelineOptions(tile_size=0)

    def test_tile_size_negative_rejected(self):
        with pytest.raises(ValueError, match="tile_size"):
            PipelineOptions(tile_size=-4)

    def test_l2_ratio_validated(self):
        with pytest.raises(ValueError, match="l2_ratio"):
            PipelineOptions(l2_ratio=0)

    def test_min_band_width_validated(self):
        with pytest.raises(ValueError, match="min_band_width"):
            PipelineOptions(min_band_width=0)

    def test_coeff_bound_validated(self):
        with pytest.raises(ValueError, match="coeff_bound"):
            PipelineOptions(coeff_bound=0)

    def test_bad_algorithm_rejected(self):
        with pytest.raises(ValueError, match="algorithm"):
            PipelineOptions(algorithm="tutu")

    def test_tile_false_allows_any_tile_size_ge_one(self):
        # disabling tiling is the documented way out, not tile_size=0
        opts = PipelineOptions(tile=False)
        assert opts.tile_size >= 1


class TestCEmitter:
    def test_structure(self):
        p = parse_program(SIMPLE, "p", params=("N",))
        res = optimize(p, PipelineOptions(algorithm="plutoplus", tile_size=16))
        c = generate_c_kernel(res.tiled).source
        assert "int64_t ceild(" in c
        assert c.count("{") == c.count("}")
        assert "for (int64_t z0" in c
        assert "A[(i + 1)][(j + 1)]" in c  # the statement body

    def test_parallel_pragma(self):
        p = parse_program(SIMPLE, "p", params=("N",))
        res = optimize(p, PipelineOptions(algorithm="plutoplus", tile=False))
        c = generate_c_kernel(res.tiled).source
        assert "#pragma omp parallel for" in c

    def test_multi_statement_guards(self):
        src = """
        for (i = 0; i < N; i++) {
            INIT: B[i] = 2.0 * A[i];
            for (k = 0; k < N; k++)
                C[i][k] = C[i][k] + B[i];
        }
        """
        p = parse_program(src, "p", params=("N",))
        res = optimize(p, PipelineOptions(tile=False))
        c = generate_c_kernel(res.tiled).source
        # INIT's schedule is constant at the level S1 iterates over: its own
        # exact range pins it (the scan searches for nothing)
        assert "for (int64_t z2 = 0; z2 <= 0; z2++) {" in c
        assert "const int64_t i = -z1;" in c


PARENT_CACHE = Path(__file__).parents[1] / "golden" / "parent_stores" / "cache"


@pytest.fixture(scope="module")
def results():
    """gemm (ISS leaves it alone) and heat-1dp (ISS splits it)."""
    return {
        name: optimize(name, get_workload(name).pipeline_options("plutoplus"))
        for name in ("gemm", "heat-1dp")
    }


class TestResultPayload:
    """Format v2 writes each structure of a result once."""

    def test_unsplit_program_and_schedule_written_once(self, results):
        payload = json.loads(results["gemm"].to_json())
        assert payload["version"] == RESULT_FORMAT_VERSION == 2
        assert payload["source_program"] is None
        assert "source_schedule" not in payload["tiled"]

    def test_split_program_keeps_its_source(self, results):
        result = results["heat-1dp"]
        assert result.used_iss
        payload = json.loads(result.to_json())
        assert payload["source_program"] == program_to_dict(result.source_program)
        assert payload["source_program"] != payload["program"]
        assert "source_schedule" not in payload["tiled"]

    @pytest.mark.parametrize("name", ["gemm", "heat-1dp"])
    def test_from_json_restores_identities(self, results, name):
        result = results[name]
        text = result.to_json()
        rebuilt = OptimizationResult.from_json(text)
        assert rebuilt == result
        assert rebuilt.tiled.source_schedule is rebuilt.schedule
        assert (rebuilt.source_program is rebuilt.program) == (not result.used_iss)
        assert rebuilt.tiled.to_dict() == result.tiled.to_dict()
        assert rebuilt.to_json() == text

    def test_tiled_to_dict_alone_keeps_source_schedule(self, results):
        result = results["gemm"]
        assert result.tiled.to_dict()["source_schedule"] == result.schedule.to_dict()

    def test_reads_parent_v1_payload(self):
        (path,) = PARENT_CACHE.rglob("*.json")
        text = path.read_text()
        data = json.loads(text)
        assert data["version"] == 1
        rebuilt = OptimizationResult.from_json(text)
        # v1 carries both copies: parsed as written (modulo the IR v1 header
        # and each statement's C-like text, which IR v2 dropped), equal not
        # shared
        parent = data["source_program"]
        assert parent["version"] == 1
        assert program_to_dict(rebuilt.source_program) == {
            **parent, "version": 2, "statements": [
                {k: v for k, v in s.items() if k != "text"}
                for s in parent["statements"]
            ],
        }
        assert rebuilt.source_program == rebuilt.program
        assert rebuilt.tiled.to_dict() == data["tiled"]
        assert rebuilt.tiled.source_schedule == rebuilt.schedule

    def test_refuses_version_3(self, results):
        payload = json.loads(results["gemm"].to_json())
        payload["version"] = 3
        with pytest.raises(ValueError, match="format v3, this build reads v1 and v2"):
            OptimizationResult.from_json(json.dumps(payload))

    @pytest.mark.parametrize("name", ["gemm", "heat-1dp"])
    def test_pickle_round_trip_unchanged(self, results, name):
        result = results[name]
        rebuilt = pickle.loads(pickle.dumps(result))
        assert rebuilt == result
        assert rebuilt.tiled.source_schedule is rebuilt.schedule
        assert (rebuilt.source_program is rebuilt.program) == (not result.used_iss)
        assert rebuilt.to_json() == result.to_json()
