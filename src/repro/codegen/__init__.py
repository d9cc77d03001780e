"""Code generation from (tiled) schedules — the CLooG-role substrate."""

from repro.codegen.c_emit import (
    CEmitError,
    CKernelSource,
    generate_c_kernel,
)
from repro.codegen.python_emit import (
    GeneratedCode,
    generate_python,
)
from repro.codegen.looptree import build_loop_tree
from repro.codegen.scan import (
    Bound,
    NonInjectiveScheduleError,
    ScanSystem,
    build_scan_systems,
    z_name,
)
from repro.core.tiling import TiledSchedule, original_schedule

__all__ = [
    "Bound",
    "CEmitError",
    "CKernelSource",
    "GeneratedCode",
    "NonInjectiveScheduleError",
    "ScanSystem",
    "build_loop_tree",
    "build_scan_systems",
    "generate_c_kernel",
    "generate_python",
    "make_generated_code",
    "original_schedule",
    "z_name",
]


def make_generated_code(
    python_source: str, tsched: TiledSchedule, traced: bool = False
) -> GeneratedCode:
    """Rebuild a :class:`GeneratedCode` from emitted source and its schedule.

    The documented constructor for deserialization and tooling, mirroring
    how native kernels are built by :func:`repro.exec.build_c_kernel`.
    """
    return GeneratedCode(python_source, tsched, traced=traced)
