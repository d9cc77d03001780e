"""Resolving optimize requests: what the daemon does before its cache probe.

:func:`resolve_optimize` turns one validated ``optimize`` request into
``(serialized program, resolved options dict)``: a registered workload name
picks up its paper flags (``iss``/``diamond``) underneath the caller's
overrides, exactly like ``repro opt``; a ``program`` request deserializes
the caller's IR.  Anything the caller got wrong — unknown workload,
malformed IR, bad option values — raises
:class:`~repro.server.protocol.ProtocolError`, which maps to a
``bad-request`` response.

:class:`ResolveMemo` caches successful workload-name resolutions *and*
their cache keys.  The workload registry is fixed for the life of a
process and workload factories are deterministic, so re-running
``w.program()`` + serialization + sha256 per request is pure waste — on
the warm serving path it is the dominant cost.  Memoized entries are
shared read-only (they are serialized into cache keys and pool-job
payloads, never mutated), and ``program`` requests are never memoized:
their IR arrives inline and must be hashed each time anyway.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from threading import Lock
from typing import Optional

from repro.server import protocol
from repro.server.cache import cache_key

__all__ = ["ResolveMemo", "resolve_optimize"]

DEFAULT_MEMO_ENTRIES = 512


def resolve_optimize(request: dict) -> tuple[dict, dict]:
    """Request → (serialized program, resolved options dict).

    Raises :class:`~repro.server.protocol.ProtocolError` for anything the
    caller got wrong: unknown workload, malformed IR, bad option values.
    """
    from repro.frontend.serialize import program_from_dict, program_to_dict
    from repro.pipeline import PipelineOptions, option_kwargs

    try:
        overrides = option_kwargs(request.get("options") or {})
    except ValueError as e:
        raise protocol.ProtocolError(str(e)) from None
    try:
        if "workload" in request:
            from repro.workloads import get_workload

            try:
                w = get_workload(request["workload"])
            except KeyError as e:
                raise protocol.ProtocolError(str(e)) from None
            options = w.pipeline_options(**overrides)
            program = w.program()
        else:
            program = program_from_dict(request["program"])
            options = PipelineOptions(**overrides)
    except protocol.ProtocolError:
        raise
    except (TypeError, ValueError, KeyError) as e:
        raise protocol.ProtocolError(
            f"cannot resolve optimize request: {e}"
        ) from None
    return program_to_dict(program), options.as_dict()


class ResolveMemo:
    """Bounded LRU of ``(program_dict, options_dict, key)`` resolutions.

    Thread-safe; only workload-name requests are memoized, and only
    successes — errors stay on the slow path so their messages reflect the
    live registry.
    """

    def __init__(self, entries: int = DEFAULT_MEMO_ENTRIES):
        self.entries = max(0, int(entries))
        self._memo: OrderedDict[str, tuple[dict, dict, str]] = OrderedDict()
        self._lock = Lock()

    @staticmethod
    def _memo_key(request: dict) -> Optional[str]:
        if "workload" not in request:
            return None
        options = request.get("options")
        if not options:
            # the common case — a bare workload request — skips the dump;
            # no collision with the dumped form, which always starts "{"
            return request["workload"]
        return json.dumps(
            {"workload": request["workload"], "options": options},
            sort_keys=True, separators=(",", ":"),
        )

    def resolve(self, request: dict) -> tuple[dict, dict, str]:
        """Like :func:`resolve_optimize`, plus the cache key, memoized."""
        mkey = self._memo_key(request) if self.entries else None
        if mkey is not None:
            with self._lock:
                hit = self._memo.get(mkey)
                if hit is not None:
                    self._memo.move_to_end(mkey)
                    return hit
        program_dict, options_dict = resolve_optimize(request)
        key = cache_key(program_dict, options_dict)
        if mkey is not None:
            with self._lock:
                if mkey not in self._memo:
                    while len(self._memo) >= self.entries:
                        self._memo.popitem(last=False)
                self._memo[mkey] = (program_dict, options_dict, key)
        return program_dict, options_dict, key
