"""Backend-neutral kernel execution.

The public surface of the execution subsystem:

* :class:`ExecutionOptions` / :class:`ExecStats` — configuration and
  per-run accounting (re-exported from :mod:`repro.api` for stability).
* :class:`CompiledKernel` — the protocol both the Python emitter's
  ``GeneratedCode`` and the native backend's :class:`CKernel` satisfy:
  one in-place ``run(arrays, params, threads=None, stats=None)`` that
  records its own time.
* :func:`compile_kernel` — the one place that picks the backend and fills
  the compile half of :class:`ExecStats`; ``OptimizationResult.run``, the
  CLI and everything above them go through it.
* :class:`ArtifactCache` / :func:`find_compiler` — the content-addressed
  ``.so`` store and compiler discovery, for tooling and tests.
"""

from repro.exec.artifacts import (
    ARTIFACT_CACHE_ENV,
    CC_ENV,
    ArtifactCache,
    Compiler,
    artifact_key,
    default_cache_dir,
    find_compiler,
)
from repro.exec.cbackend import CKernel, build_c_kernel
from repro.exec.dispatch import CompiledKernel, compile_kernel
from repro.exec.options import (
    BACKENDS,
    ExecBackendError,
    ExecStats,
    ExecutionOptions,
)

__all__ = [
    "ARTIFACT_CACHE_ENV",
    "BACKENDS",
    "CC_ENV",
    "ArtifactCache",
    "CKernel",
    "Compiler",
    "CompiledKernel",
    "ExecBackendError",
    "ExecStats",
    "ExecutionOptions",
    "artifact_key",
    "build_c_kernel",
    "compile_kernel",
    "default_cache_dir",
    "find_compiler",
]
