"""Tests for the D2Q9/D3Q27 LBM solvers."""

import numpy as np
import pytest

from tests.apps import (
    D2Q9,
    D3Q27,
    FlowPastCylinder,
    LidDrivenCavity,
    LidDrivenCavity3D,
    Poiseuille,
)


class TestD2Q9Constants:
    def test_weights_sum_to_one(self):
        assert D2Q9.W.sum() == pytest.approx(1.0)

    def test_opposites(self):
        for q in range(9):
            o = D2Q9.OPPOSITE[q]
            assert D2Q9.CX[o] == -D2Q9.CX[q]
            assert D2Q9.CY[o] == -D2Q9.CY[q]

    def test_equilibrium_moments(self):
        rho = np.full((4, 4), 1.2)
        ux = np.full((4, 4), 0.05)
        uy = np.full((4, 4), -0.02)
        feq = D2Q9.equilibrium(rho, ux, uy)
        assert np.allclose(feq.sum(axis=0), rho)
        assert np.allclose((D2Q9.CX[:, None, None] * feq).sum(axis=0), rho * ux)
        assert np.allclose((D2Q9.CY[:, None, None] * feq).sum(axis=0), rho * uy)


class TestLidDrivenCavity:
    def test_stable_and_finite(self):
        sim = LidDrivenCavity(nx=20, ny=20)
        sim.run(150)
        assert np.isfinite(sim.f).all()

    def test_lid_drags_fluid(self):
        sim = LidDrivenCavity(nx=24, ny=24, u_lid=0.1)
        sim.run(300)
        ux, _ = sim.velocity_field()
        assert ux[-2].mean() > 0.01         # near the moving lid: along +x
        assert abs(ux[1].mean()) < ux[-2].mean()  # bottom nearly still

    def test_mrt_collision_stable(self):
        sim = LidDrivenCavity(nx=16, ny=16)
        sim.run(100, collision="mrt")
        assert np.isfinite(sim.f).all()

    def test_mrt_conserves_mass_in_collision(self):
        sim = LidDrivenCavity(nx=12, ny=12)
        sim.run(10)
        before = sim.f.sum()
        sim.collide_mrt()
        assert sim.f.sum() == pytest.approx(before, rel=1e-9)

    def test_unknown_collision_rejected(self):
        sim = LidDrivenCavity(nx=8, ny=8)
        with pytest.raises(ValueError):
            sim.step(collision="trt")


class TestPoiseuille:
    def test_parabolic_profile(self):
        sim = Poiseuille(nx=8, ny=11, tau=1.0, force=1e-6)
        sim.run(3000)
        ux, _ = sim.velocity_field()
        prof = ux[:, 4]
        ana = sim.analytic_profile()
        err = np.abs(prof[1:-1] - ana[1:-1]).max() / ana.max()
        assert err < 0.02

    def test_flow_is_unidirectional(self):
        sim = Poiseuille(nx=8, ny=11, tau=1.0, force=1e-6)
        sim.run(500)
        ux, uy = sim.velocity_field()
        assert np.abs(uy).max() < 1e-5  # cross-flow is numerical noise only
        assert ux[5, 4] > 0


class TestFlowPastCylinder:
    def test_obstacle_blocks_flow(self):
        sim = FlowPastCylinder(nx=40, ny=20)
        sim.run(120)
        ux, _ = sim.velocity_field()
        assert np.isfinite(ux).all()
        inside = np.abs(ux[sim.mask]).mean()
        outside = np.abs(ux[~sim.mask]).mean()
        assert inside < outside

    def test_wake_forms_downstream(self):
        sim = FlowPastCylinder(nx=48, ny=20, u_in=0.08)
        sim.run(200)
        ux, _ = sim.velocity_field()
        cy, cx = sim.ny // 2, sim.nx // 4
        behind = ux[cy, cx + 6]
        free = ux[2, cx]
        assert behind < free  # velocity deficit in the wake


class TestD3Q27:
    def test_weights_sum_to_one(self):
        assert D3Q27.W.sum() == pytest.approx(1.0)

    def test_opposites(self):
        for q in range(27):
            assert (D3Q27.C[D3Q27.OPPOSITE[q]] == -D3Q27.C[q]).all()

    def test_cavity_stable(self):
        sim = LidDrivenCavity3D(n=8)
        sim.run(40)
        assert np.isfinite(sim.f).all()

    def test_lid_drives_top_layer(self):
        sim = LidDrivenCavity3D(n=10, u_lid=0.08)
        sim.run(80)
        _, ux, _, _ = sim.macroscopic()
        assert ux[-2].mean() > ux[1].mean()
