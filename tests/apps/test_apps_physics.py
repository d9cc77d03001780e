"""Additional physics sanity checks on the application solvers."""

import numpy as np
import pytest

from tests.apps import LidDrivenCavity, LidDrivenCavity3D, ShallowWater, run_heat


class TestConservation:
    def test_d2q9_cavity_mass_bounded(self):
        sim = LidDrivenCavity(nx=20, ny=20)
        m0 = sim.f.sum()
        sim.run(200)
        # bounce-back walls conserve mass; the moving-lid correction
        # exchanges momentum, so mass stays within a small band
        assert sim.f.sum() == pytest.approx(m0, rel=0.05)

    def test_d3q27_collision_conserves_mass_and_momentum(self):
        sim = LidDrivenCavity3D(n=6)
        sim.run(5)
        rho0 = sim.f.sum()
        before = sim.macroscopic()
        sim.collide()
        after = sim.macroscopic()
        assert sim.f.sum() == pytest.approx(rho0, rel=1e-10)
        for b, a in zip(before[1:], after[1:]):
            assert np.allclose(b, a, atol=1e-10)  # collision preserves momentum

    def test_heat_total_energy_monotone_spread(self):
        rng = np.random.default_rng(9)
        u = rng.random(128)
        variances = []
        cur = u
        for _ in range(4):
            cur = run_heat(cur, 25)
            variances.append(cur.var())
        assert all(a > b for a, b in zip(variances, variances[1:]))

    def test_swim_energy_stays_bounded(self):
        sw = ShallowWater(n=20)
        ke0 = sw.diagnostics()["ke"]
        sw.run(40)
        ke = sw.diagnostics()["ke"]
        assert 0.2 * ke0 < ke < 5.0 * ke0


class TestCavityFlowStructure:
    def test_primary_vortex_rotates_with_lid(self):
        sim = LidDrivenCavity(nx=32, ny=32, u_lid=0.1, tau=0.56)
        sim.run(800)
        ux, uy = sim.velocity_field()
        # lid drives +x at the top; continuity returns flow along the bottom
        assert ux[-2, 5:-5].mean() > 0
        assert ux[2, 5:-5].mean() < 0

    def test_higher_lid_speed_more_kinetic_energy(self):
        energies = []
        for u_lid in (0.05, 0.1):
            sim = LidDrivenCavity(nx=20, ny=20, u_lid=u_lid)
            sim.run(300)
            ux, uy = sim.velocity_field()
            energies.append(float((ux**2 + uy**2).mean()))
        assert energies[1] > energies[0]
