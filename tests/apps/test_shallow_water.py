"""Tests for the shallow-water (swim) solver."""

import numpy as np
import pytest

from tests.apps import ShallowWater


class TestShallowWater:
    def test_stable(self):
        sw = ShallowWater(n=24)
        sw.run(50)
        assert np.isfinite(sw.p).all()
        assert np.isfinite(sw.u).all()

    def test_mass_conserved(self):
        sw = ShallowWater(n=24)
        m0 = sw.p.mean()
        sw.run(60)
        assert sw.p.mean() == pytest.approx(m0, rel=1e-6)

    def test_periodicity_no_boundary_artifacts(self):
        """A cyclic shift of the initial state shifts the solution."""
        sw1 = ShallowWater(n=16)
        sw2 = ShallowWater(n=16)
        shift = 5
        sw2.u = np.roll(sw1.u, shift, axis=0).copy()
        sw2.v = np.roll(sw1.v, shift, axis=0).copy()
        sw2.p = np.roll(sw1.p, shift, axis=0).copy()
        sw2._uold = np.roll(sw1._uold, shift, axis=0).copy()
        sw2._vold = np.roll(sw1._vold, shift, axis=0).copy()
        sw2._pold = np.roll(sw1._pold, shift, axis=0).copy()
        sw1.run(10)
        sw2.run(10)
        assert np.allclose(np.roll(sw1.p, shift, axis=0), sw2.p, rtol=1e-9)

    def test_diagnostics_keys(self):
        sw = ShallowWater(n=8)
        d = sw.diagnostics()
        assert set(d) == {"mass", "ke", "umax"}

    def test_first_step_uses_half_tdt(self):
        sw1 = ShallowWater(n=12)
        p_before = sw1.p.copy()
        sw1.step(first=True)
        delta_first = np.abs(sw1.p - p_before).max()
        sw2 = ShallowWater(n=12)
        sw2.step(first=False)
        delta_full = np.abs(sw2.p - p_before).max()
        assert delta_first < delta_full
