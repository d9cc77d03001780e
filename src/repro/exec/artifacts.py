"""Content-addressed cache of compiled kernel artifacts.

Exactly the schedule cache's contract (:mod:`repro.server.cache`), applied
to ``.so`` files: the key is ``sha256(emitted source + compiler
fingerprint + flags)``, entries live at ``<root>/<k[:2]>/<key>.so`` with
the source alongside as ``<key>.c`` (debuggability + recompilation), both
published atomically through :mod:`repro.store` (whose age-gated sweep
reclaims the temporaries of a killed compile), and there is no
invalidation protocol — a different source, compiler, or flag set is
simply a different key, and the root can be deleted wholesale at any time.  The cache survives
restarts: a daemon or test process that re-requests a kernel it compiled
in an earlier life gets a hit, not a rebuild.

The compiler is discovered once per process (``$REPRO_CC``, then ``cc``,
``gcc``, ``clang`` on PATH) and fingerprinted by its ``--version`` first
line, so upgrading the toolchain re-keys every artifact automatically.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.exec.options import ExecBackendError, ExecStats
from repro.store import AtomicStore, atomic_publish

__all__ = [
    "ARTIFACT_CACHE_ENV",
    "CC_ENV",
    "CFLAGS",
    "Compiler",
    "ArtifactCache",
    "artifact_key",
    "default_cache_dir",
    "find_compiler",
]

#: environment override for the artifact-cache root
ARTIFACT_CACHE_ENV = "REPRO_ARTIFACT_CACHE"
#: environment override for the compiler executable
CC_ENV = "REPRO_CC"

#: compile flags for every kernel.  ``-ffp-contract=off`` keeps the
#: compiler from fusing multiply-adds into FMAs, preserving the exact
#: IEEE rounding sequence the Python emitter performs — this is what makes
#: bit-compatibility between the backends achievable rather than merely
#: ULP-approximate on FMA hardware.
CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

_COMPILER_CANDIDATES = ("cc", "gcc", "clang")

#: probed compilers per executable path (process lifetime)
_COMPILERS: dict[str, Optional["Compiler"]] = {}


@dataclass(frozen=True)
class Compiler:
    """A discovered C compiler and its cache-key fingerprint."""

    path: str
    version: str  # first line of `--version`

    @property
    def fingerprint(self) -> str:
        return f"{self.version}|{' '.join(CFLAGS)}|-fopenmp"


def default_cache_dir() -> Path:
    env = os.environ.get(ARTIFACT_CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "kernels"


def find_compiler(cc: Optional[str] = None) -> Optional[Compiler]:
    """Locate and fingerprint a C compiler; ``None`` when there is none.

    ``cc`` (or ``$REPRO_CC``) overrides discovery; otherwise the first of
    ``cc``/``gcc``/``clang`` on PATH wins.  Probes are memoized for the
    life of the process — toolchains do not change underneath a run.
    """
    candidates = [cc] if cc else (
        [os.environ[CC_ENV]] if os.environ.get(CC_ENV)
        else list(_COMPILER_CANDIDATES)
    )
    for cand in candidates:
        if cand in _COMPILERS:
            found = _COMPILERS[cand]
            if found is not None:
                return found
            continue
        path = shutil.which(cand)
        if path is None:
            _COMPILERS[cand] = None
            continue
        try:
            probe = subprocess.run(
                [path, "--version"],
                capture_output=True, text=True, timeout=30,
            )
            version = (probe.stdout or probe.stderr).splitlines()[0].strip()
        except (OSError, subprocess.TimeoutExpired, IndexError):
            _COMPILERS[cand] = None
            continue
        compiler = Compiler(path=path, version=version)
        _COMPILERS[cand] = compiler
        return compiler
    return None


def artifact_key(source: str, compiler: Compiler) -> str:
    """Content address of one compiled kernel (hex sha256)."""
    h = hashlib.sha256()
    h.update(source.encode("utf-8"))
    h.update(b"\0")
    h.update(compiler.fingerprint.encode("utf-8"))
    return h.hexdigest()


class ArtifactCache(AtomicStore):
    """The on-disk ``.so`` store; safe for concurrent writers.

    Not an LRU — compiled kernels are a few tens of kilobytes and the
    working set (one per distinct schedule) is small; content addressing
    means entries never go stale, only unused.  Orphans of a compile
    killed mid-publish are swept when the cache is opened.
    """

    def __init__(self, cache_dir: Optional[os.PathLike] = None):
        super().__init__(
            cache_dir if cache_dir is not None else default_cache_dir(), ".so"
        )

    def source_path_for(self, key: str) -> Path:
        return self.path_for(key, ".c")

    def ensure(
        self,
        source: str,
        compiler: Compiler,
        stats: Optional[ExecStats] = None,
    ) -> tuple[Path, str]:
        """Return ``(path-to-.so, tier)``, compiling on a miss.

        ``tier`` is ``"disk"`` for a reused artifact and ``"compiled"``
        for a cold build; compile wall time lands in
        ``stats.compile_seconds``.  Raises :class:`ExecBackendError` when
        the compiler rejects the source.
        """
        key = artifact_key(source, compiler)
        if stats is not None:
            stats.artifact_key = key
            stats.compiler = compiler.version
        path = self.path_for(key)
        if path.is_file():
            return path, "disk"
        t0 = time.perf_counter()
        self._compile(source, compiler, key, path)
        if stats is not None:
            stats.compile_seconds += time.perf_counter() - t0
        return path, "compiled"

    def _compile(
        self, source: str, compiler: Compiler, key: str, path: Path
    ) -> None:
        try:
            with atomic_publish(self.source_path_for(key), path) as (
                tmp_src, tmp_so,
            ):
                tmp_src.write_text(source)
                cmd = [compiler.path, *CFLAGS, "-fopenmp",
                       "-o", str(tmp_so), str(tmp_src), "-lm"]
                run = subprocess.run(
                    cmd, capture_output=True, text=True, timeout=300
                )
                if run.returncode != 0:
                    # toolchains without libgomp: retry serial (results are
                    # identical, only parallel speed is lost)
                    cmd_serial = [c for c in cmd if c != "-fopenmp"]
                    run = subprocess.run(
                        cmd_serial, capture_output=True, text=True, timeout=300
                    )
                if run.returncode != 0:
                    detail = (run.stderr or run.stdout).strip().splitlines()
                    raise ExecBackendError(
                        "compile failed: "
                        + (detail[0] if detail else "unknown error")
                    )
        except (OSError, subprocess.TimeoutExpired) as e:
            raise ExecBackendError(f"compile failed: {e}") from e
        self._note_put()

    # -- introspection -----------------------------------------------------

    def entries(self) -> int:
        return self.disk_len()
