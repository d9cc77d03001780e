"""The native execution backend: compile, load, marshal, run.

:func:`build_c_kernel` turns a :class:`~repro.core.tiling.TiledSchedule`
into a callable :class:`CKernel`: the kernel emitter renders a compilable
translation unit, the artifact cache compiles it (or reuses a prior
``.so``), and ctypes binds the ``repro_kernel`` entry point.

Marshalling follows the emitter's ABI contract
(:class:`repro.codegen.c_emit.CKernelSource`): one flat ``double*`` per
array in sorted-name order, extents and parameters as ``int64`` vectors.
Arrays run **in place** — the same mutation semantics as the Python
backend — with a transparent copy-in/copy-out only for ``float64`` inputs
that are not C-contiguous; any other dtype is a ``TypeError`` before the
kernel runs.

A :class:`CKernel` pickles: the ctypes handles are a cache, dropped on
``__getstate__`` and lazily rebuilt on the other side — recompiling
through the artifact cache if the ``.so`` path does not exist there (a
different machine, a cleaned cache).
"""

from __future__ import annotations

import ctypes
import time
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from repro.codegen.c_emit import CEmitError, CKernelSource, generate_c_kernel
from repro.core.tiling import TiledSchedule
from repro.exec.artifacts import ArtifactCache, find_compiler
from repro.exec.options import ExecBackendError, ExecStats, ExecutionOptions

__all__ = ["CKernel", "build_c_kernel"]

#: loaded shared objects per artifact key (process lifetime) — dlopen'ing
#: the same path repeatedly is legal but wasteful
_LOADED: dict[str, ctypes.CDLL] = {}


class CKernel:
    """A compiled native kernel satisfying the ``CompiledKernel`` protocol."""

    backend = "c"

    def __init__(
        self,
        ksrc: CKernelSource,
        lib_path: Path,
        artifact_key: str,
        cache_dir: Optional[str] = None,
        cc: Optional[str] = None,
    ):
        self.ksrc = ksrc
        self.lib_path = str(lib_path)
        self.artifact_key = artifact_key
        self._cache_dir = cache_dir
        self._cc = cc
        self._fn = None
        self._set_threads = None
        self._omp: Optional[bool] = None

    # -- protocol surface --------------------------------------------------

    @property
    def source(self) -> str:
        return self.ksrc.source

    def run(
        self,
        arrays: Mapping[str, np.ndarray],
        params: Mapping[str, int],
        threads: Optional[int] = None,
        stats: Optional[ExecStats] = None,
    ) -> None:
        """Execute in place over ``arrays`` at ``params``; ``stats`` gets
        the marshalling and kernel wall times, the thread count and
        whether OpenMP is on."""
        self._ensure_loaded()
        t0 = time.perf_counter()
        bufs, writeback = self._marshal(arrays)
        ptrs = (ctypes.POINTER(ctypes.c_double) * len(bufs))(*[
            b.ctypes.data_as(ctypes.POINTER(ctypes.c_double)) for b in bufs
        ])
        shape_list: list[int] = []
        for buf in bufs:
            shape_list.extend(int(s) for s in buf.shape)
        shapes = (ctypes.c_int64 * max(1, len(shape_list)))(*shape_list)
        try:
            pvals = [int(params[p]) for p in self.ksrc.param_order]
        except KeyError as e:
            raise KeyError(
                f"missing parameter {e.args[0]!r}; kernel "
                f"{self.ksrc.name!r} needs {list(self.ksrc.param_order)}"
            ) from None
        pvec = (ctypes.c_int64 * max(1, len(pvals)))(*pvals)
        if threads is not None and self._set_threads is not None:
            self._set_threads(int(threads))
        if stats is not None:
            stats.marshal_seconds += time.perf_counter() - t0
        t1 = time.perf_counter()
        self._fn(ptrs, shapes, pvec)
        if stats is not None:
            stats.exec_seconds += time.perf_counter() - t1
            stats.omp = self._omp
            stats.threads = threads
        for name, buf in writeback:
            np.copyto(arrays[name], buf)

    # -- loading -----------------------------------------------------------

    def _ensure_loaded(self) -> None:
        if self._fn is not None:
            return
        lib = _LOADED.get(self.artifact_key)
        if lib is None:
            path = Path(self.lib_path)
            if not path.is_file():
                path = self._recompile()
            try:
                lib = ctypes.CDLL(str(path))
            except OSError as e:
                raise ExecBackendError(f"cannot load kernel: {e}") from e
            _LOADED[self.artifact_key] = lib
        fn = getattr(lib, self.ksrc.entry)
        fn.argtypes = [
            ctypes.POINTER(ctypes.POINTER(ctypes.c_double)),
            ctypes.POINTER(ctypes.c_int64),
            ctypes.POINTER(ctypes.c_int64),
        ]
        fn.restype = None
        self._fn = fn
        set_threads = getattr(lib, "repro_set_threads", None)
        if set_threads is not None:
            set_threads.argtypes = [ctypes.c_int]
            set_threads.restype = None
        self._set_threads = set_threads
        omp_probe = getattr(lib, "repro_omp_enabled", None)
        if omp_probe is not None:
            omp_probe.restype = ctypes.c_int
            self._omp = bool(omp_probe())

    def _recompile(self) -> Path:
        """Rebuild the artifact (post-unpickle on another machine, or a
        cleaned cache); the content address guarantees an identical key
        reproduces an equivalent ``.so``."""
        compiler = find_compiler(self._cc)
        if compiler is None:
            raise ExecBackendError(
                "no C compiler found to rebuild the kernel artifact"
            )
        cache = ArtifactCache(self._cache_dir)
        path, _ = cache.ensure(self.ksrc.source, compiler)
        self.lib_path = str(path)
        return path

    def _marshal(
        self, arrays: Mapping[str, np.ndarray]
    ) -> tuple[list[np.ndarray], list[tuple[str, np.ndarray]]]:
        bufs: list[np.ndarray] = []
        writeback: list[tuple[str, np.ndarray]] = []
        for name in self.ksrc.array_order:
            try:
                a = arrays[name]
            except KeyError:
                raise KeyError(
                    f"missing array {name!r}; kernel {self.ksrc.name!r} "
                    f"needs {list(self.ksrc.array_order)}"
                ) from None
            a = np.asarray(a)
            rank = self.ksrc.array_ranks.get(name, 0)
            if a.ndim != rank:
                raise ValueError(
                    f"array {name!r} has rank {a.ndim}, kernel expects {rank}"
                )
            if a.dtype != np.float64:
                # refused before the kernel runs: no array is written
                raise TypeError(
                    f"array {name!r} has dtype {a.dtype}, kernel expects float64"
                )
            if a.flags.c_contiguous:
                bufs.append(a)
            else:
                buf = np.ascontiguousarray(a)
                bufs.append(buf)
                writeback.append((name, buf))
        return bufs, writeback

    # -- pickling ----------------------------------------------------------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_fn"] = None
        state["_set_threads"] = None
        return state


def build_c_kernel(
    tsched: TiledSchedule,
    options: ExecutionOptions,
    stats: ExecStats,
) -> CKernel:
    """Emit + compile (or reuse) the native kernel for ``tsched``.

    Raises :class:`ExecBackendError` when no compiler is available, the
    program has a body C cannot express, or the source does not compile;
    the artifact key, compiler and tier (``disk``/``compiled``) are
    recorded on ``stats``.
    """
    compiler = find_compiler(options.cc)
    if compiler is None:
        raise ExecBackendError(
            "no C compiler found (tried $REPRO_CC, cc, gcc, clang)"
        )
    try:
        ksrc = generate_c_kernel(tsched)
    except CEmitError as e:
        raise ExecBackendError(str(e)) from e
    path, stats.artifact_cache = ArtifactCache(options.cache_dir).ensure(
        ksrc.source, compiler, stats
    )
    return CKernel(
        ksrc,
        path,
        artifact_key=stats.artifact_key,
        cache_dir=options.cache_dir,
        cc=options.cc,
    )
