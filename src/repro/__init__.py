"""pluto-plus-repro: a from-scratch reproduction of

    PLUTO+: Near-Complete Modeling of Affine Transformations for
    Parallelism and Locality.  Acharya & Bondhugula, PPoPP 2015.

The supported public surface is :mod:`repro.api`, re-exported here::

    from repro import optimize, verify, PipelineOptions

    result = optimize("heat-1dp", PipelineOptions(algorithm="plutoplus"))
    print(result.schedule.pretty())
    assert verify(result).legal
    result.code.run(arrays, params)

Results are picklable and JSON round-trippable
(``OptimizationResult.from_json(result.to_json()) == result``), so they
cross process boundaries — the basis of the ``repro suite`` parallel
runner (:mod:`repro.suite`).

Everything else — :mod:`repro.polyhedra` (integer sets), :mod:`repro.ilp`
(lexmin ILP), :mod:`repro.frontend` (IR/builder/parser), :mod:`repro.deps`
(dependence analysis), :mod:`repro.core` (the Pluto/Pluto+ schedulers, ISS,
diamond tiling), :mod:`repro.codegen`, :mod:`repro.exec`, :mod:`repro.runtime`,
:mod:`repro.server`, :mod:`repro.workloads` — is internal; deep imports
keep working but carry no stability promise (``docs/API.md``).
"""

from importlib import metadata as _metadata

from repro.api import (
    ExecStats,
    ExecutionOptions,
    OptimizationResult,
    PipelineOptions,
    TimingBreakdown,
    VerificationReport,
    analyze_dependences,
    list_workloads,
    optimize,
    verify,
)
from repro.frontend import ProgramBuilder, parse_program

try:
    # Installed builds answer from package metadata, so `repro --version`,
    # the daemon's response header, and `pip show repro` can never disagree.
    __version__ = _metadata.version("repro")
except _metadata.PackageNotFoundError:  # running from a source checkout
    __version__ = "1.39.0"

__all__ = [
    "ExecStats",
    "ExecutionOptions",
    "OptimizationResult",
    "PipelineOptions",
    "ProgramBuilder",
    "TimingBreakdown",
    "VerificationReport",
    "__version__",
    "analyze_dependences",
    "list_workloads",
    "optimize",
    "parse_program",
    "verify",
]
