"""Execution configuration and per-run statistics.

:class:`ExecutionOptions` is the backend-neutral execution contract: which
backend runs the generated kernel (``python``, ``c``, or ``auto``), how
many OpenMP threads a native kernel may use, and where compiled artifacts
live.  It deliberately mirrors :class:`repro.pipeline.PipelineOptions`'s
conventions — keyword-only, validated at construction, dict-round-trippable
— because execution options cross the same process boundaries (suite
manifests, benchmark records).

:class:`ExecStats` is the execution-side counterpart of
``SchedulerStats``: which backend was requested vs. actually used (with
``fallback_reason`` when the native path bowed out), compile/execute wall
times, and artifact-cache accounting.  ``from_dict`` tolerates missing
fields so old manifests keep parsing as the format grows.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.records import Record

__all__ = ["ExecutionOptions", "ExecStats", "ExecBackendError", "BACKENDS",
           "COMPILE_HALF"]

#: the execution backends OptimizationResult.run() dispatches over
BACKENDS = ("python", "c", "auto")


class ExecBackendError(RuntimeError):
    """A requested native backend cannot be used (no compiler, no C body,
    compile failure).  Non-strict execution converts this into a Python
    fallback with the message recorded as ``ExecStats.fallback_reason``."""


@dataclass(kw_only=True)
class ExecutionOptions:
    """How to execute generated code.

    All fields are keyword-only (the ``PipelineOptions`` rule: positional
    construction silently re-binds meaning whenever a field is added).

    ``backend``
        ``"python"`` — the exec'd-Python kernel (default; always works);
        ``"c"``/``"auto"`` — compile the emitted C with the system compiler
        and run at hardware speed.  Both degrade to Python when no
        compiler/body is available unless ``strict`` is set;
        :func:`repro.exec.compile_kernel` treats them alike (the difference
        is only intent: ``"c"`` is an explicit request, CLI ``--backend c``).
    ``threads``
        OpenMP thread count for native kernels (``None`` = the OpenMP
        runtime default).
    ``cache_dir``
        Compiled-artifact cache root; defaults to ``$REPRO_ARTIFACT_CACHE``
        or ``~/.cache/repro/kernels``.
    ``cc``
        Compiler executable; defaults to ``$REPRO_CC`` or the first of
        ``cc``/``gcc``/``clang`` on ``PATH``.
    ``strict``
        Raise :class:`ExecBackendError` instead of falling back to Python.
    """

    backend: str = "python"
    threads: Optional[int] = None
    cache_dir: Optional[str] = None
    cc: Optional[str] = None
    strict: bool = False

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown execution backend {self.backend!r} "
                f"(expected one of {', '.join(map(repr, BACKENDS))})"
            )
        if self.threads is not None and self.threads < 1:
            raise ValueError("threads must be >= 1 (or None for the default)")

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionOptions":
        known = set(cls.__dataclass_fields__)
        extra = set(data) - known
        if extra:
            raise ValueError(
                f"unknown ExecutionOptions fields: {sorted(extra)}"
            )
        return cls(**data)


@dataclass
class ExecStats(Record):
    """What one kernel execution did (JSON-shaped for manifests/--stats).

    ``backend_requested`` is what the caller asked for; ``backend`` is what
    actually ran — they differ exactly when ``fallback_reason`` is set.
    ``artifact_cache`` records how the compiled ``.so`` was obtained:
    ``"memory"`` (a kernel ``OptimizationResult.run`` already built and
    reuses), ``"disk"`` (reused from the content-addressed store, surviving
    restarts), ``"compiled"`` (cold compile), or ``None`` for pure-Python
    runs.  :func:`repro.exec.compile_kernel` fills the fields named in
    :data:`COMPILE_HALF`; the kernel's ``run`` fills the rest.
    """

    backend_requested: str = "python"
    backend: str = "python"
    fallback_reason: Optional[str] = None
    compile_seconds: float = 0.0
    exec_seconds: float = 0.0
    marshal_seconds: float = 0.0
    artifact_cache: Optional[str] = None
    artifact_key: Optional[str] = None
    compiler: Optional[str] = None
    omp: Optional[bool] = None
    threads: Optional[int] = None


#: the :class:`ExecStats` fields :func:`repro.exec.compile_kernel` fills
COMPILE_HALF = ("backend_requested", "backend", "fallback_reason",
                "artifact_key", "compiler", "compile_seconds", "artifact_cache")
