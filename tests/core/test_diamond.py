"""Tests for diamond tiling (concurrent start; Fig. 4g)."""

import pytest

from repro.core import (
    SchedulerOptions,
    find_diamond_schedule,
    index_set_split,
)
from repro.deps import DependenceGraph, compute_dependences
from repro.frontend import parse_program
from repro.workloads.periodic import heat_1dp


@pytest.fixture(scope="module")
def split_heat():
    p, _ = index_set_split(heat_1dp())
    ddg = DependenceGraph(p, compute_dependences(p))
    return p, ddg


class TestDiamondOnPeriodicHeat:
    def test_plutoplus_finds_fig4_transformation(self, split_heat):
        p, ddg = split_heat
        s = find_diamond_schedule(p, ddg, SchedulerOptions(algorithm="plutoplus"))
        assert s is not None
        maps = {name: s.map_for(name) for name in ("S0_m", "S0_p")}
        # Fig. 4g(d): one half gets (t+i, t-i), the other (t-i+N, t+i-N)
        plus_half = maps["S0_p"]
        minus_half = maps["S0_m"]
        pm = [
            [e.coeff_of("t") for e in plus_half],
            [e.coeff_of("i") for e in plus_half],
        ]
        assert pm == [[1, 1], [1, -1]] or pm == [[1, 1], [-1, 1]]
        # the reversed half carries the parametric shift N
        assert any(e.coeff_of("N") != 0 for e in minus_half)

    @pytest.mark.parametrize("bound", [1, 2, 4, 8])
    def test_found_at_every_coefficient_bound(self, split_heat, bound):
        """Ablation A1: the diamond needs only +-1 coefficients, so every
        bound ``b`` of the sweep admits it (the paper's b = 4 is headroom)."""
        p, ddg = split_heat
        opts = SchedulerOptions(algorithm="plutoplus", coeff_bound=bound)
        assert find_diamond_schedule(p, ddg, opts) is not None

    def test_band_is_concurrent_start(self, split_heat):
        p, ddg = split_heat
        s = find_diamond_schedule(p, ddg, SchedulerOptions(algorithm="plutoplus"))
        assert s.bands[0].concurrent_start
        assert s.bands[0].width == 2

    def test_all_deps_satisfied(self, split_heat):
        p, ddg = split_heat
        s = find_diamond_schedule(p, ddg, SchedulerOptions(algorithm="plutoplus"))
        assert s is not None
        assert not ddg.unsatisfied()

    def test_classic_pluto_fails(self, split_heat):
        """The reversal needs a negative coefficient: classic Pluto's ILP is
        infeasible — the paper's core claim."""
        p, ddg = split_heat
        s = find_diamond_schedule(p, ddg, SchedulerOptions(algorithm="pluto"))
        assert s is None

    def test_band_distances_nonnegative_everywhere(self, split_heat):
        """Full permutability: every dependence has distance >= 0 at every
        band level (checked exactly)."""
        p, ddg = split_heat
        s = find_diamond_schedule(p, ddg, SchedulerOptions(algorithm="plutoplus"))
        for d in ddg.deps:
            for level in s.bands[0].levels():
                row = s.rows[level]
                mn = d.polyhedron.min_of(
                    d.distance_expr(row.expr_for(d.source), row.expr_for(d.target))
                )
                assert mn is not None and mn >= 0


class TestDiamondGuards:
    def test_no_common_time_iterator(self):
        src = """
        for (i = 0; i < N; i++) A[i] = 1.0;
        for (j = 0; j < N; j++) B[j] = 2.0;
        """
        p = parse_program(src, "p", params=("N",))
        ddg = DependenceGraph(p, compute_dependences(p))
        assert find_diamond_schedule(p, ddg) is None

    def test_one_dimensional_statements_rejected(self):
        src = "for (t = 0; t < T; t++) A[t+1] = A[t];"
        p = parse_program(src, "p", params=("T",))
        ddg = DependenceGraph(p, compute_dependences(p))
        assert find_diamond_schedule(p, ddg) is None

    def test_nonperiodic_jacobi_gets_diamond(self):
        """Plain (non-periodic) stencils admit diamonds too ([2])."""
        src = """
        for (t = 0; t < T; t++)
            for (i = 1; i < N-1; i++)
                A[t+1][i] = 0.3 * (A[t][i-1] + A[t][i] + A[t][i+1]);
        """
        p = parse_program(src, "p", params=("T", "N"), param_min=4)
        ddg = DependenceGraph(p, compute_dependences(p))
        s = find_diamond_schedule(p, ddg, SchedulerOptions(algorithm="plutoplus"))
        assert s is not None
        assert s.bands[0].concurrent_start


class TestDiamondStats:
    """Diamond levels go through the scheduler's one per-level solve step,
    so they are counted like any other level."""

    def test_request_reports_model_size_and_rows(self, monkeypatch, tmp_path):
        from repro.pipeline import PipelineOptions, optimize

        opts = PipelineOptions(iss=True, diamond=True)
        monkeypatch.delenv("REPRO_SKELETON_CACHE", raising=False)
        cold = optimize("heat-1dp", opts)
        assert cold.used_diamond
        stats = cold.scheduler_stats
        assert stats.ilp_variables_max > 0
        # the ndim - 1 rows the ILP found; the completed row k*f - sum(h)
        # is not a solve
        assert stats.hyperplanes_found == 1
        assert stats.solve.lp_solves > 0

        monkeypatch.setenv("REPRO_SKELETON_CACHE", str(tmp_path))
        assert optimize("heat-1dp", opts).scheduler_stats.structural_path == "miss"
        warm = optimize("heat-1dp", opts).scheduler_stats
        assert warm.structural_path == "hit"
        assert warm.solve.lp_solves == 0
        assert warm.hyperplanes_found == 1
