"""Tests for the reference heat solvers."""

import numpy as np
import pytest

from tests.apps import run_heat, step_1d, step_2d, step_3d


class TestHeatSolvers:
    @pytest.mark.parametrize("shape", [(32,), (12, 12), (6, 6, 6)])
    def test_mean_conserved(self, shape):
        rng = np.random.default_rng(1)
        u = rng.random(shape)
        out = run_heat(u, 25)
        assert np.isclose(out.mean(), u.mean())

    @pytest.mark.parametrize("shape", [(32,), (12, 12), (6, 6, 6)])
    def test_smooths_toward_uniform(self, shape):
        rng = np.random.default_rng(2)
        u = rng.random(shape)
        out = run_heat(u, 200)
        assert out.std() < 0.25 * u.std()

    def test_constant_field_fixed_point(self):
        u = np.full(50, 3.5)
        assert np.allclose(run_heat(u, 10), u)

    def test_periodic_wraparound_1d(self):
        u = np.zeros(16)
        u[0] = 1.0
        out = np.empty_like(u)
        step_1d(u, out)
        # mass leaks across the periodic boundary
        assert out[-1] == pytest.approx(0.125)
        assert out[1] == pytest.approx(0.125)

    def test_translation_equivariance(self):
        """Periodic stencils commute with cyclic shifts."""
        rng = np.random.default_rng(3)
        u = rng.random(40)
        a = run_heat(np.roll(u, 7), 15)
        b = np.roll(run_heat(u, 15), 7)
        assert np.allclose(a, b)

    def test_2d_matches_manual_point(self):
        rng = np.random.default_rng(4)
        u = rng.random((5, 5))
        out = np.empty_like(u)
        step_2d(u, out)
        i, j = 2, 3
        manual = 0.5 * u[i, j] + 0.125 * (
            u[i - 1, j] + u[i + 1, j] + u[i, j - 1] + u[i, (j + 1) % 5]
        )
        assert out[i, j] == pytest.approx(manual)

    def test_3d_shape_preserved(self):
        u = np.random.default_rng(5).random((4, 5, 6))
        out = np.empty_like(u)
        step_3d(u, out)
        assert out.shape == u.shape

    def test_unsupported_rank(self):
        with pytest.raises(ValueError):
            run_heat(np.zeros((2, 2, 2, 2)), 1)
