"""End-to-end integration: optimize + execute + compare with source order.

Runs the full pipeline (both algorithms) on representative workloads at
small sizes and validates the generated code against the original execution
order on random inputs.  These are the strongest correctness checks in the
repository — any unsoundness in dependence analysis, Farkas, the ILP,
satisfaction tracking, ISS, tiling, or scanning shows up here.
"""

import pytest

from repro.pipeline import optimize
from repro.runtime import validate_transformation
from repro.workloads import get_workload

# (workload, algorithms) — chosen to cover: perfect nests, imperfect nests,
# fusion, triangular domains, scalars, reversal/ISS patterns, diamonds.
FAST_CASES = [
    "gemm",
    "mvt",
    "atax",
    "trisolv",
    "jacobi-1d-imper",
    "seidel-2d",
    "fig1-skew",
    "fig2-symmetric-consumer",
    "fig3-symmetric-deps",
    "heat-1dp",
]

SLOWER_CASES = [
    "2mm",
    "bicg",
    "gesummv",
    "doitgen",
    "gemver",
    "syrk",
    "covariance",
    "floyd-warshall",
    "jacobi-2d-imper",
    "lu",
]


@pytest.mark.parametrize("name", FAST_CASES)
@pytest.mark.parametrize("algorithm", ["pluto", "plutoplus"])
def test_validate_fast(name, algorithm):
    w = get_workload(name)
    result = optimize(w.program(), w.pipeline_options(algorithm, tile_size=3))
    check = validate_transformation(result.program, result.tiled, w.small_sizes)
    assert check.ok, f"{name}/{algorithm}: mismatch in {check.mismatched_arrays}"


@pytest.mark.parametrize("name", SLOWER_CASES)
def test_validate_plutoplus_only(name):
    w = get_workload(name)
    result = optimize(w.program(), w.pipeline_options("plutoplus", tile_size=3))
    check = validate_transformation(result.program, result.tiled, w.small_sizes)
    assert check.ok, f"{name}: mismatch in {check.mismatched_arrays}"


class TestHeadlineBehaviors:
    """The paper's core claims, end to end."""

    def test_periodic_heat_only_plutoplus_diamonds(self):
        w = get_workload("heat-1dp")
        plus = optimize(w.program(), w.pipeline_options("plutoplus"))
        classic = optimize(w.program(), w.pipeline_options("pluto"))
        assert plus.used_diamond and plus.used_iss
        assert not classic.used_diamond

    def test_polybench_same_transformation_quality(self):
        """Section 4.2: on Polybench both algorithms find the same (or
        equivalent) transformations — compared here structurally: the same
        band widths and parallelism pattern."""
        for name in ("gemm", "mvt", "seidel-2d", "jacobi-1d-imper"):
            w = get_workload(name)
            a = optimize(w.program(), w.pipeline_options("pluto"))
            b = optimize(w.program(), w.pipeline_options("plutoplus"))
            widths_a = sorted(band.width for band in a.schedule.bands)
            widths_b = sorted(band.width for band in b.schedule.bands)
            assert widths_a == widths_b, name

    def test_lbm_model_transformed_and_valid(self):
        w = get_workload("lbm-ldc-d2q9")
        result = optimize(w.program(), w.pipeline_options("plutoplus", tile_size=3))
        assert result.used_iss
        check = validate_transformation(result.program, result.tiled, w.small_sizes)
        assert check.ok

    def test_fig2_outer_parallel_only_with_plutoplus(self):
        w = get_workload("fig2-symmetric-consumer")
        plus = optimize(w.program(), w.pipeline_options("plutoplus", tile=False))
        classic = optimize(w.program(), w.pipeline_options("pluto", tile=False))
        assert plus.schedule.rows[0].parallel
        assert not classic.schedule.rows[0].parallel

    def test_c_code_emitted_for_transformed(self):
        from repro.codegen import generate_c_kernel

        # heat-1dp's diamond band runs as a tile-index wavefront: neither
        # diamond hyperplane is carried-free at tile granularity (a pragma
        # on the first tile row alone was a data race), the tiles of one
        # w = z1 + z2 are — one region, workshared inside the w loop
        w = get_workload("heat-1dp")
        result = optimize(w.program(), w.pipeline_options("plutoplus"))
        c = generate_c_kernel(result.tiled).source
        assert c.count("#pragma omp parallel") == 1
        assert c.count("#pragma omp for") == 1
        assert "#pragma omp parallel for" not in c
        assert "floord" in c and "for (int64_t z0" in c

        # a sound inner-parallel point loop still gets the pragma
        w = get_workload("fig1-skew")
        result = optimize(w.program(), w.pipeline_options("plutoplus"))
        assert "#pragma omp parallel for" in generate_c_kernel(result.tiled).source
