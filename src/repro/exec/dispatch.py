"""Backend-neutral kernel compilation: the seam the execution API sits on.

:class:`CompiledKernel` is the protocol both emitters satisfy — the Python
emitter's :class:`~repro.codegen.python_emit.GeneratedCode` and the native
backend's :class:`~repro.exec.cbackend.CKernel` each expose ``backend``,
``source``, and an in-place ``run(arrays, params, threads=None,
stats=None)`` that adds its own wall time to ``stats.exec_seconds``.
Callers that hold a ``CompiledKernel`` never branch on which one they got.

:func:`compile_kernel` is the single dispatch point, and the only code that
fills the compile half of :class:`ExecStats` (``COMPILE_HALF``).
``backend="python"`` always succeeds; ``"c"`` tries the native path and —
unless ``strict`` — degrades to Python with the reason recorded in
``ExecStats.fallback_reason``, so a missing compiler or a body C cannot
express downgrades a run instead of failing it.
"""

from __future__ import annotations

from typing import Mapping, Optional, Protocol, runtime_checkable

import numpy as np

from repro.core.tiling import TiledSchedule
from repro.exec.cbackend import build_c_kernel
from repro.exec.options import ExecBackendError, ExecStats, ExecutionOptions

__all__ = ["CompiledKernel", "compile_kernel"]


@runtime_checkable
class CompiledKernel(Protocol):
    """What every execution backend hands back.

    ``run`` mutates ``arrays`` in place and adds its wall time to
    ``stats.exec_seconds``; ``threads`` is a native setting (the Python
    kernel ignores it).  ``backend`` names the engine that will execute
    ("python" or "c"); ``source`` is the emitted kernel text in that
    backend's language.
    """

    backend: str

    @property
    def source(self) -> str: ...

    def run(
        self,
        arrays: Mapping[str, np.ndarray],
        params: Mapping[str, int],
        threads: Optional[int] = None,
        stats: Optional[ExecStats] = None,
    ) -> None: ...


def compile_kernel(
    tsched: TiledSchedule,
    options: Optional[ExecutionOptions] = None,
    stats: Optional[ExecStats] = None,
    code=None,
):
    """Compile ``tsched`` for the backend ``options`` selects.

    ``code`` is an already-generated Python :class:`GeneratedCode` to reuse
    for the Python backend (and the fallback), so dispatch never re-emits
    what the pipeline already produced.  Returns a :class:`CompiledKernel`;
    the compile half of ``stats`` (made here when the caller passes none)
    says which backend it is and how it was obtained.

    With ``options.strict`` the native path raises
    :class:`ExecBackendError` instead of falling back.
    """
    from repro.codegen import generate_python  # cycle: codegen -> exec facade

    options = options or ExecutionOptions()
    stats = stats if stats is not None else ExecStats()
    stats.backend_requested = options.backend
    if options.backend == "c":
        try:
            kernel = build_c_kernel(tsched, options, stats)
            stats.backend = "c"
            return kernel
        except ExecBackendError as e:
            if options.strict:
                raise
            stats.fallback_reason = str(e)
    stats.backend = "python"
    return code if code is not None else generate_python(tsched)
