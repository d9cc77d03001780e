"""Tests for index-set splitting (Section 2.4, Fig. 4c)."""

import pytest

from repro.core import index_set_split, long_dependence_dims, needs_iss
from repro.deps import compute_dependences
from repro.frontend import parse_program
from repro.workloads.periodic import heat_1dp, heat_2dp


class TestLongDependenceDetection:
    def test_uniform_deps_not_long(self):
        src = """
        for (t = 0; t < T; t++)
            for (i = 1; i < N-1; i++)
                A[i] = 0.5 * (A[i-1] + A[i+1]);
        """
        p = parse_program(src, "p", params=("T", "N"), param_min=4)
        deps = compute_dependences(p)
        assert not needs_iss(deps)

    def test_periodic_wraparound_is_long(self):
        deps = compute_dependences(heat_1dp())
        dims = long_dependence_dims(deps)
        assert dims == {"S0": {"i"}}

    def test_symmetric_reflection_is_long(self):
        src = """
        for (i = 0; i < N; i++)
            for (j = 0; j < N; j++)
                a[i+1][j] = 2.0 * a[i][N-j-1];
        """
        p = parse_program(src, "p", params=("N",))
        deps = compute_dependences(p)
        dims = long_dependence_dims(deps)
        assert "j" in dims.get("S0", set())
        assert "i" not in dims.get("S0", set())

    def test_2d_periodic_long_in_both_dims(self):
        deps = compute_dependences(heat_2dp())
        dims = long_dependence_dims(deps)
        assert dims == {"S0": {"i", "j"}}


class TestSplitting:
    def test_1d_split_into_halves(self):
        p = heat_1dp()
        p2, changed = index_set_split(p)
        assert changed
        assert [s.name for s in p2.statements] == ["S0_m", "S0_p"]

    def test_halves_partition_domain(self):
        p = heat_1dp()
        p2, _ = index_set_split(p)
        lo, hi = p2.statements
        n, t_steps = 9, 3
        orig_pts = p.statements[0].domain.enumerate_points({"N": n, "T": t_steps})
        lo_pts = lo.domain.enumerate_points({"N": n, "T": t_steps})
        hi_pts = hi.domain.enumerate_points({"N": n, "T": t_steps})
        assert sorted(lo_pts + hi_pts) == sorted(orig_pts)
        assert not (set(lo_pts) & set(hi_pts))

    def test_cut_at_midpoint(self):
        p = heat_1dp()
        p2, _ = index_set_split(p)
        lo, hi = p2.statements
        # N = 9: 2i <= 8 -> i <= 4; hi: i >= 5
        assert lo.domain.contains({"t": 0, "i": 4, "N": 9, "T": 3})
        assert not lo.domain.contains({"t": 0, "i": 5, "N": 9, "T": 3})
        assert hi.domain.contains({"t": 0, "i": 5, "N": 9, "T": 3})

    def test_2d_split_into_quadrants(self):
        p2, changed = index_set_split(heat_2dp())
        assert changed
        assert len(p2.statements) == 4
        names = {s.name for s in p2.statements}
        assert names == {"S0_mm", "S0_mp", "S0_pm", "S0_pp"}

    def test_no_split_returns_same_program(self):
        src = "for (i = 0; i < N; i++) A[i+1] = A[i];"
        p = parse_program(src, "p", params=("N",))
        p2, changed = index_set_split(p)
        assert not changed and p2 is p

    def test_neighbors_split_along_shared_cut_dims(self):
        """Every statement owning a cut dimension is split — even ones whose
        own dependences are short (the [6] whole-space splitting; leaving a
        neighbor unsplit makes the post-ISS shift systems infeasible)."""
        from repro.frontend import ProgramBuilder

        b = ProgramBuilder("mix", params=("T", "N"), param_min=4)
        with b.loop("t", 0, "T-1"):
            with b.loop("i", 0, "N-1"):
                b.stmt("A[t+1][i] = A[t][(i+1) % N]")
            with b.loop("i", 0, "N-1"):
                b.stmt("B[t][i] = A[t][i]", name="SB")
        p2, changed = index_set_split(b.build())
        assert changed
        names = [s.name for s in p2.statements]
        assert sorted(names) == ["SB_m", "SB_p", "S0_m", "S0_p"] or len(names) == 4

    def test_split_preserves_semantics(self):
        """Original order of the split program equals the unsplit program."""
        from repro.codegen import generate_python, original_schedule
        from repro.runtime import random_arrays
        import numpy as np

        p = heat_1dp()
        p2, _ = index_set_split(p)
        params = {"N": 8, "T": 4}
        a1 = random_arrays(p, params, seed=3)
        a2 = {k: v.copy() for k, v in a1.items()}
        generate_python(original_schedule(p)).run(a1, params)
        generate_python(original_schedule(p2)).run(a2, params)
        for k in a1:
            assert np.allclose(a1[k], a2[k])
