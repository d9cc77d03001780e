"""Workload descriptors and the registry used by tests and benchmarks.

A :class:`Workload` bundles a polyhedral program factory with the pipeline
flags the paper uses for it (``--iss --partlbtile`` for the periodic suite),
its evaluation problem sizes (Table 2 / Polybench standard datasets), small
sizes for execution-based validation, and the per-point operation counts the
performance model needs (Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.frontend.ir import Program
from repro.pipeline import PipelineOptions

__all__ = ["PerfSpec", "Workload", "register", "get_workload", "all_workloads", "WORKLOADS"]


@dataclass(frozen=True)
class PerfSpec:
    """Per-point work/traffic characteristics for the machine model.

    ``flops_per_point``  — floating point operations per grid-point update;
    ``bytes_per_point``  — main-memory traffic per point for one untiled
    sweep (reads + writes, accounting for streaming reuse within a sweep);
    ``time_param``       — parameter naming the time-step count (time-
    iterated codes only);
    ``space_params``     — parameters whose product is the grid size;
    ``vector_efficiency``— fraction of SIMD peak reachable in the innermost
    loop (3-d stencils vectorize poorly, Section 4.2).
    """

    flops_per_point: float
    bytes_per_point: float
    time_param: Optional[str] = None
    space_params: tuple[str, ...] = ()
    vector_efficiency: float = 1.0
    mlups: bool = False  # report MLUPS (LBM convention) instead of seconds


@dataclass
class Workload:
    name: str
    category: str                      # "polybench" | "periodic" | "motivation"
    factory: Callable[[], Program]
    sizes: dict[str, int] = field(default_factory=dict)
    small_sizes: dict[str, int] = field(default_factory=dict)
    iss: bool = False
    diamond: bool = False
    perf: Optional[PerfSpec] = None
    notes: str = ""

    def program(self) -> Program:
        return self.factory()

    def pipeline_options(
        self, algorithm: str = "plutoplus", **overrides
    ) -> PipelineOptions:
        """The paper flags (``iss``/``diamond``) underneath ``overrides`` —
        the one statement of that rule, shared by ``repro opt``, the daemon
        and the suite matrix."""
        opts = dict(
            algorithm=algorithm,
            iss=self.iss,
            diamond=self.diamond,
        )
        opts.update(overrides)
        return PipelineOptions(**opts)


WORKLOADS: dict[str, Workload] = {}


def register(workload: Workload) -> Workload:
    if workload.name in WORKLOADS:
        raise ValueError(f"duplicate workload {workload.name!r}")
    WORKLOADS[workload.name] = workload
    return workload


def get_workload(name: str) -> Workload:
    # Import side effects populate the registry on first use.
    import repro.workloads  # noqa: F401

    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(WORKLOADS)}"
        ) from None


def all_workloads(category: Optional[str] = None) -> list[Workload]:
    import repro.workloads  # noqa: F401

    items = list(WORKLOADS.values())
    if category is not None:
        items = [w for w in items if w.category == category]
    return items
