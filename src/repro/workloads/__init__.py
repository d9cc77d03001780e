"""Benchmark workloads: Polybench/C 3.2, periodic stencils, LBM, swim.

Importing this package populates the registry (:data:`WORKLOADS`).
"""

from repro.workloads.base import (
    Workload,
    WORKLOADS,
    all_workloads,
    get_workload,
    register,
)

# Registration side effects.
from repro.workloads.polybench import (  # noqa: F401
    POLYBENCH_LA,
    POLYBENCH_MEDLEY,
    POLYBENCH_STENCILS,
)
from repro.workloads.periodic import PERIODIC_HEAT  # noqa: F401
from repro.workloads.lbm import LBM_WORKLOADS  # noqa: F401
from repro.workloads.swim import SWIM  # noqa: F401
from repro.workloads.motivation import MOTIVATION  # noqa: F401
from repro.workloads.reduction_kernels import REDUCTION_KERNELS  # noqa: F401

__all__ = [
    "Workload",
    "WORKLOADS",
    "all_workloads",
    "get_workload",
    "register",
]
