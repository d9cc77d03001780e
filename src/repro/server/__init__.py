"""Scheduling-as-a-service: a persistent daemon around ``optimize()``.

``repro serve`` runs the pipeline as a long-lived service so repeated
scheduling requests — the common case for real users, per the paper's
compile-time argument (Table 3) and the follow-up latency work
(arXiv:1803.10726) — amortize to a cache lookup instead of a full pipeline
run.  The pieces:

* :mod:`repro.server.protocol` — JSON-lines request/response framing over a
  Unix or TCP socket, with a version header on every response;
* :mod:`repro.server.cache`    — the two-tier content-addressed schedule
  cache (in-memory LRU over an atomic on-disk store, both from
  :mod:`repro.store`), keyed by
  ``sha256(canonical IR + options + pipeline version)``;
* :mod:`repro.server.listener` — the daemon's JSON-lines socket
  transport (one asyncio loop): claim + staged bind, connection loop,
  ``bad-request`` answers, graceful drain on SIGTERM;
* :mod:`repro.server.daemon`   — what an ``optimize`` request means:
  single-flight request coalescing, admission control with explicit busy
  responses, the warm pool's drain; the pool itself —
  pre-forked persistent workers behind a bounded queue — is
  :class:`repro.workers.WarmWorkerPool`, the one the suite engine runs on
  too (re-exported here);
* :mod:`repro.server.resolve`  — request → (program, options, key)
  resolution, memoized for workload-name requests on the warm path;
* :mod:`repro.server.metrics`  — hit rates, queue depth, in-flight count,
  pool reuse counters, per-stage latency percentiles, exposed via
  ``stats`` requests;
* :mod:`repro.server.client`   — the blocking client used by
  ``repro client`` and scripts.

Like :mod:`repro.suite`, everything crossing the wire is the public JSON
surface: serialized IR from :mod:`repro.frontend.serialize` in, full
``OptimizationResult.to_json()`` payloads out.
"""

from repro.server.cache import ScheduleCache, cache_key
from repro.server.client import ServerClient
from repro.server.daemon import Daemon, DaemonConfig, SocketInUse
from repro.server.metrics import ServerMetrics
from repro.server.protocol import PROTOCOL_VERSION, ProtocolError
from repro.workers import WarmWorkerPool

__all__ = [
    "Daemon",
    "DaemonConfig",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ScheduleCache",
    "ServerClient",
    "ServerMetrics",
    "SocketInUse",
    "WarmWorkerPool",
    "cache_key",
]
