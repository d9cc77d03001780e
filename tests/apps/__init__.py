"""Reference numerical applications behind the benchmark models.

The polyhedral workloads (:mod:`repro.workloads`) are the *compiler's view*
of these applications; the solvers here are the runnable physics: periodic
heat equations, D2Q9/D3Q27 Lattice Boltzmann flows, and the shallow-water
(swim) scheme.  No compile or served request runs them, so they live
beside the tests, as the physics oracles the generated kernels can be
checked against.
"""

from tests.apps.heat import run_heat, step_1d, step_2d, step_3d
from tests.apps.lbm_d2q9 import D2Q9, FlowPastCylinder, LidDrivenCavity, Poiseuille
from tests.apps.lbm_d3q27 import D3Q27, LidDrivenCavity3D
from tests.apps.shallow_water import ShallowWater

__all__ = [
    "D2Q9",
    "D3Q27",
    "FlowPastCylinder",
    "LidDrivenCavity",
    "LidDrivenCavity3D",
    "Poiseuille",
    "ShallowWater",
    "run_heat",
    "step_1d",
    "step_2d",
    "step_3d",
]
