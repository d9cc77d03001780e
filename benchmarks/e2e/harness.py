"""What every workload shares: the run context, operation accounting,
sample statistics and the per-layer roll-up of the traced pass."""

from __future__ import annotations

import math
import random
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from repro.api import verify
from repro.frontend.serialize import program_to_dict

from benchmarks.e2e.calibrate import Calibrator
from benchmarks.e2e.env import RUN_SECONDS, clock
from benchmarks.e2e.spans import Tracer

__all__ = [
    "Context", "Op", "Samples", "build_programs", "geomean", "layer_metrics",
]

def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class Samples:
    """Timings of one repeated measurement; reported as median, quartiles, n."""

    values: list[float] = field(default_factory=list)

    def add(self, seconds: float) -> None:
        self.values.append(seconds)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def median(self) -> float:
        return statistics.median(self.values)

    @property
    def quartiles(self) -> tuple[float, float]:
        if self.n < 2:
            return self.values[0], self.values[0]
        q1, _, q3 = statistics.quantiles(self.values, n=4)
        return q1, q3

    @property
    def iqr_share(self) -> float:
        q1, q3 = self.quartiles
        return (q3 - q1) / self.median


@dataclass
class Op:
    """Outcome of one counted operation (see :meth:`Context.op`)."""

    what: str
    seconds: float = 0.0
    failed: bool = False


@dataclass
class Context:
    """One workload run: inputs from the command line, counters out.

    An *operation* is one ``optimize()`` call, one ``compile_kernel()``,
    one verified kernel run or one daemon request.  It fails if it raises,
    falls back, or fails its correctness check; a failed operation is
    counted and the run continues.
    """

    workload: str
    seed: int
    seconds: float
    trace: bool
    check: bool
    tmp: Path
    t_spawn: float
    rng: random.Random = field(init=False)
    tracer: Optional[Tracer] = field(init=False)
    calibrator: Calibrator = field(default_factory=Calibrator)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    timed_ops: int = 0
    timed_seconds: float = 0.0
    setup_s: Optional[float] = None
    #: correctness checks, all made outside the timed regions
    verify_s: float = 0.0
    reference_check_s: float = 0.0
    verify_failures: int = 0
    mismatches: int = 0

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)
        self.tracer = Tracer() if self.trace else None

    def reps(self, base: int) -> int:
        """``base`` repetitions at ``--seconds`` = RUN_SECONDS, scaled
        linearly with ``--seconds``; one in ``--check`` mode."""
        if self.check:
            return 1
        return max(1, round(base * self.seconds / RUN_SECONDS))

    def shuffled(self, items: Iterable) -> list:
        """``items`` in the order this seed visits them."""
        items = list(items)
        self.rng.shuffle(items)
        return items

    def setup_done(self) -> None:
        self.setup_s = clock() - self.t_spawn

    @contextmanager
    def op(self, what: str, timed: bool = True) -> Iterator[Op]:
        """Count one operation; an exception inside marks it failed and is
        swallowed (check ``op.failed`` before using what the block made).
        ``timed`` operations feed ``request_rps``.  Each operation is
        followed by its share of speed calibration (not part of its time)."""
        op = Op(what)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            yield op
        except Exception as e:  # boundary: a failed operation is a count
            self.fail(op, f"{type(e).__name__}: {e}")
        finally:
            op.seconds = time.perf_counter() - t0
            if timed:
                self.timed_ops += 1
                self.timed_seconds += op.seconds
            self.calibrator.after(op.seconds)

    def fail(self, op: Op, why: str) -> None:
        """Mark ``op`` failed (at most once per operation)."""
        if not op.failed:
            op.failed = True
            self.failed += 1
        if len(self.failures) < 50:
            self.failures.append(f"{op.what}: {why}")

    def expect(self, op: Op, ok: bool, why: str) -> None:
        if not ok:
            self.fail(op, why)

    def expect_legal(self, op: Op, result) -> None:
        """``repro.api.verify``: legality re-derived from fresh dependences."""
        t0 = time.perf_counter()
        legal = verify(result).legal
        self.verify_s += time.perf_counter() - t0
        self.verify_failures += not legal
        self.expect(op, legal, "illegal schedule")

    def expect_output(self, op: Op, agrees: bool, why: str) -> None:
        """The outcome of a comparison with an independent reference."""
        self.mismatches += not agrees
        self.expect(op, agrees, why)

    @contextmanager
    def checking(self) -> Iterator[None]:
        """Time spent computing and comparing references."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.reference_check_s += time.perf_counter() - t0

    def common_metrics(self) -> dict[str, float]:
        return {
            "request_rps": self.timed_ops / self.timed_seconds,
            "harness.speed_index": self.calibrator.speed_index,
            "core.verify_s": self.verify_s,
            "runtime.reference_check_s": self.reference_check_s,
            "runtime.mismatches": float(self.mismatches),
            "runtime.verify_failures": float(self.verify_failures),
        }


def build_programs(workloads: Iterable) -> tuple[dict, dict[str, float]]:
    """``Workload.program()`` for each workload, by name, and the
    ``frontend`` layer's metrics (*span* x2, *count*)."""
    programs = {}
    build_s = serialize_s = 0.0
    for w in workloads:
        t0 = time.perf_counter()
        programs[w.name] = w.program()
        t1 = time.perf_counter()
        program_to_dict(programs[w.name])
        build_s += t1 - t0
        serialize_s += time.perf_counter() - t1
    return programs, {
        "frontend.build_s": build_s,
        "frontend.serialize_s": serialize_s,
        "frontend.statements": float(
            sum(len(p.statements) for p in programs.values())
        ),
    }


#: spans of the staged driver; ``<name>_s`` is the per-layer metric fed by
#: their total time
STAGE_SPANS = (
    "deps.compute", "deps.ddg", "core.iss", "core.diamond", "core.scheduler",
    "core.quick", "core.properties", "core.tiling", "core.skeleton.lookup",
    "core.skeleton.merge", "codegen.python_emit", "codegen.c_emit",
)


def layer_metrics(requests: Sequence, tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the traced pass, summed over its requests.

    Each request is a :class:`benchmarks.e2e.staged.StagedResult`.  Times
    are span totals (*span*); counters come from the ``DepStats`` /
    ``SchedulerStats`` the public calls filled (*reported*) and from the
    schedule itself (*count*).
    """
    dep = [r.dep_stats for r in requests]
    sch = [r.scheduler_stats for r in requests]
    hits = sum(d.cache_hits for d in dep)
    misses = sum(d.cache_misses for d in dep)
    wanted_quick = [s for s in sch if s.scheduler_mode in ("quick", "auto")]
    quick_taken = sum(s.scheduler_path == "quick" for s in wanted_quick)
    totals = tracer.totals()
    out = {
        f"{name}_s": totals[name]["total"] for name in STAGE_SPANS
        if name in totals
    }
    out.update({
        "codegen.python_bytes": sum(
            len(r.code.python_source.encode()) for r in requests
        ),
        "deps.pairs_tested": sum(d.pairs_tested for d in dep),
        "deps.deps_found": sum(d.deps_found for d in dep),
        "deps.fast_rejects": sum(d.fast_rejects for d in dep),
        "polyhedra.cache_hits": hits,
        "polyhedra.cache_misses": misses,
        "polyhedra.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "polyhedra.cache_evictions": sum(d.cache_evictions for d in dep),
        "polyhedra.fm_saved": sum(d.fm_saved for d in dep),
        "ilp.solve_s": sum(s.solve.solve_seconds for s in sch),
        "ilp.lp_solves": sum(s.solve.lp_solves for s in sch),
        "ilp.simplex_pivots": sum(s.solve.simplex_pivots for s in sch),
        "ilp.bb_nodes": sum(s.solve.bb_nodes for s in sch),
        "ilp.warm_starts": sum(s.solve.warm_starts for s in sch),
        "ilp.models_reused": sum(s.solve.models_reused for s in sch),
        "core.iss_applied": sum(r.used_iss for r in requests),
        "core.diamond_found": sum(r.used_diamond for r in requests),
        "core.quick_taken": quick_taken,
        "core.quick_fallbacks": len(wanted_quick) - quick_taken,
        "core.quick_hit_ratio": (
            quick_taken / len(wanted_quick) if wanted_quick else 0.0
        ),
        "core.schedule_depth": sum(r.schedule.depth for r in requests),
        "core.parallel_rows": sum(
            sum(1 for row in r.schedule.rows if row.parallel) for r in requests
        ),
        "core.bands_tiled": sum(
            sum(1 for b in r.tiled.bands if r.tiled.rows[b.start].kind == "tile")
            for r in requests
        ),
        "core.concurrent_start_bands": sum(
            sum(1 for b in r.schedule.bands if b.concurrent_start)
            for r in requests
        ),
    })
    return {k: float(v) for k, v in out.items()}
