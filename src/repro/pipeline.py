"""End-to-end source-to-source optimization pipeline.

Mirrors the paper's toolchain stages and timing breakdown (Table 3, Fig. 5):

1. **dependence analysis**      — :mod:`repro.deps` (ISL's role);
2. **automatic transformation** — index-set splitting (``--iss``), diamond
   tiling search (``--partlbtile``), and the Pluto/Pluto+ ILP scheduler;
3. **code generation**          — :mod:`repro.codegen` (CLooG's role);
4. **misc/other**               — hyperplane properties, tilable-band
   handling, tiling (post-transformation analyses, as in the paper).

``optimize()`` returns the transformed program, schedules, generated code,
and a per-stage :class:`TimingBreakdown`.
"""

from __future__ import annotations

import dataclasses
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Mapping, Optional, Union

from repro.codegen import generate_python
from repro.core.diamond import find_diamond_schedule
from repro.core.iss import index_set_split
from repro.core.properties import mark_parallelism
from repro.core.scheduler import (
    ALGORITHMS,
    DEFAULT_COEFF_BOUND,
    FUSE_POLICIES,
    PlutoScheduler,
    SchedulerOptions,
    SchedulerStats,
)
from repro.core.tiling import (
    TiledSchedule,
    l2_tile_schedule,
    optimize_intra_tile,
    tile_schedule,
    untiled_schedule,
)
from repro.core.transform import Schedule
from repro.deps import DependenceGraph, DepStats, compute_dependences
from repro.exec.options import COMPILE_HALF, ExecStats, ExecutionOptions
from repro.frontend.ir import Program
from repro.polyhedra.cache import cache_disabled
from repro.records import Record

__all__ = [
    "PipelineOptions",
    "TimingBreakdown",
    "OptimizationResult",
    "PIPELINE_VERSION",
    "SCHEDULE_VERSION",
    "RESULT_FORMAT_VERSION",
    "RETIRED_OPTIONS",
    "optimize",
    "option_kwargs",
    "pipeline_fingerprint",
]

#: bumped whenever OptimizationResult.to_json()'s shape changes incompatibly.
#: 2: each structure is written once — ``source_program`` is ``null`` when
#: index-set splitting left the program as it was, and ``tiled`` has no
#: ``source_schedule`` when it is the result's ``schedule``.
#: :meth:`OptimizationResult.from_json` reads every version in
#: :data:`_READABLE_RESULT_FORMATS`.
RESULT_FORMAT_VERSION = 2
_READABLE_RESULT_FORMATS = (1, 2)

#: bumped whenever ``optimize()`` may emit a *different* schedule or code for
#: the same ``(program, options)`` input — new scheduler heuristics, changed
#: tiling defaults, codegen changes.  The serving layer's content-addressed
#: schedule cache folds this into every key, so stale entries from an older
#: pipeline can never be served (see ``docs/API.md``, "Cache-key contract").
#: 3: loop bounds come from one history-tracked projection chain per
#: statement — leaner hulls, so emitted source (never a schedule) moved on
#: the time-tiled stencils (heat-1dp/2dp, seidel-2d, fdtd-2d, jacobi-1d/2d).
#: 4: a diamond band's point rows are the source order (tile rows keep the
#: hyperplanes), so the *tiled* schedule of every concurrent-start kernel
#: moved, and an innermost loop over index-set-split pieces runs once per
#: piece, so the emitted source of every split program moved.  Schedules,
#: solve keys and skeleton records did not.
PIPELINE_VERSION = 4

#: the scheduling half of :data:`PIPELINE_VERSION`: bumped only when
#: ``optimize()`` may emit a different *schedule*.  The skeleton store keys
#: on this one, so a codegen-only bump (PIPELINE_VERSION 2: the emitters
#: invert schedules instead of searching; 3; 4) leaves warm-start records valid.
#: Its stamp (:func:`pipeline_fingerprint` with ``schedule_only``) keeps the
#: literal ``result-v1`` it has always hashed: skeleton records hold solves,
#: not result payloads, so a :data:`RESULT_FORMAT_VERSION` bump must not turn
#: them all into misses.
SCHEDULE_VERSION = 1

#: bumped whenever the quick-permutation heuristic (``repro.core.quick``)
#: may emit a different schedule for the same input — candidate ordering,
#: matching rules, the auto quality bound.  Folded into the cache
#: fingerprint only for ``scheduler="quick"|"auto"`` requests, so tuning
#: the heuristic never invalidates cached exact results.
QUICK_SCHEDULER_VERSION = 1

#: Options that are no longer fields, with the one value each may still carry.
#: HiGHS answers every lexmin, so the ILP backend is no longer a choice, but
#: :meth:`PipelineOptions.as_dict` keeps writing the pair (after
#: ``coeff_bound``, where the field sat): server cache keys, skeleton
#: fingerprints, suite manifests and result JSON stay byte-identical.
RETIRED_OPTIONS = {"ilp_backend": "highs"}


def pipeline_fingerprint(
    scheduler: Optional[str] = None, *, schedule_only: bool = False
) -> str:
    """The version stamp the schedule cache mixes into every key
    (``schedule_only``: the skeleton store's, see :data:`SCHEDULE_VERSION`).

    When ``scheduler`` (the resolved scheduler mode) is given, the stamp
    carries it — plus the quick-heuristic version for the modes that may
    run it — so ``quick``/``auto``/``exact`` results can never collide in
    a content-addressed store even if the rest of the request is identical.
    """
    from repro.frontend.serialize import IR_FORMAT_VERSION

    base = (
        f"pipeline-v{SCHEDULE_VERSION if schedule_only else PIPELINE_VERSION}"
        f"/result-v{1 if schedule_only else RESULT_FORMAT_VERSION}"
        f"/ir-v{IR_FORMAT_VERSION}"
    )
    if scheduler is None:
        return base
    tail = f"/sched-{scheduler}"
    if scheduler in ("quick", "auto"):
        tail += f"-v{QUICK_SCHEDULER_VERSION}"
    return base + tail


def _option(default, *, values=(), flag=None, help=None, omit=False):
    """A :class:`PipelineOptions` field with its option facts, stated once:
    its value set (checked on construction, the flag's choices), its
    command-line ``flag`` with ``help`` (``repro opt``, ``verify`` and
    ``client opt`` all generate theirs from these), and whether
    :meth:`~PipelineOptions.as_dict` leaves it out at its default
    (``omit``)."""
    return dataclasses.field(
        default=default,
        metadata={"values": values, "flag": flag, "help": help, "omit": omit},
    )


@dataclass(kw_only=True)
class PipelineOptions:
    """Pipeline configuration (the paper's command-line flags).

    ``--tile --parallel`` are the paper's defaults for all benchmarks;
    ``--iss`` and ``--partlbtile`` (diamond) are enabled for the periodic
    stencil suite.

    All fields are keyword-only: positional construction would silently
    re-bind meaning whenever a field is added, and options cross process
    boundaries (suite manifests) where that ambiguity is fatal.
    """

    algorithm: str = _option(
        "plutoplus", values=ALGORITHMS, flag="--algorithm",
        help="Pluto's scheduler or Pluto+'s (negative coefficients)",
    )
    scheduler: str = _option(        # quick: arXiv:1803.10726
        "exact", values=("auto", "exact", "quick"), flag="--scheduler",
        help="hyperplane search: exact per-level ILPs, the quick fusion "
             "+ dimension-matching heuristic, or auto (quick with exact "
             "fallback)",
    )
    tile: bool = True                 # --tile 0 clears it
    tile_size: int = _option(32, flag="--tile", help="tile size (0 disables tiling)")
    iss: bool = _option(False, flag="--iss", help="enable index-set splitting")
    diamond: bool = _option(
        False, flag="--diamond", help="enable diamond tiling (--partlbtile)"
    )
    coeff_bound: int = _option(
        DEFAULT_COEFF_BOUND, flag="--bound", help="Pluto+ coefficient bound b"
    )
    min_band_width: int = 2
    fuse: str = _option(
        "smart", values=FUSE_POLICIES, flag="--fuse",
        help="fusion policy: smart cuts SCCs of different dimensionality, "
             "max fuses while a common hyperplane exists, no distributes",
    )
    l2tile: bool = _option(False, flag="--l2tile", help="second-level tiling")
    l2_ratio: int = 8
    intra_tile: bool = _option(
        False, flag="--intra-tile",
        help="rotate a parallel loop innermost in point bands",
    )
    deps_cache: bool = True           # --no-deps-cache disables the fast path
    rar: bool = _option(             # repro.deps.rar; quick/diamond ignore it
        False, flag="--rar", omit=True,
        help="feed read-after-read reuse into the exact scheduler's "
             "locality objective (never legality)",
    )
    #: ``repro.core.reductions``: "privatize" keeps native loops sequential
    #: (Python partial sums only); "omp" also emits reduction pragmas/atomics
    parallel_reductions: str = _option(
        "off", values=("off", "privatize", "omp"),
        flag="--parallel-reductions", omit=True,
        help="relax commutative-associative reduction self-dependences "
             "so the reduction dimension can run in parallel; omp also "
             "emits reduction clauses/atomics in C (verification drops "
             "to tolerance comparison)",
    )

    def __post_init__(self) -> None:
        """Validate up front — bad values otherwise surface as cryptic
        failures deep in codegen (``tile_size=0`` used to die with an
        "unbounded scan dimension" RuntimeError)."""
        for f in _FIELDS:
            values, value = f.metadata.get("values"), getattr(self, f.name)
            if values and value not in values:
                raise ValueError(
                    f"unknown {f.name} {value!r} "
                    f"(expected one of {', '.join(map(repr, values))})"
                )
        if self.coeff_bound < 1:
            raise ValueError("coeff_bound must be >= 1")
        if self.tile_size < 1:
            raise ValueError(
                "tile_size must be >= 1 (set tile=False to disable tiling)"
            )
        if self.l2_ratio < 1:
            raise ValueError("l2_ratio must be >= 1")
        if self.min_band_width < 1:
            raise ValueError("min_band_width must be >= 1")
        if not isinstance(self.rar, bool):
            raise ValueError(f"rar must be a bool, got {self.rar!r}")

    def scheduler_options(self) -> SchedulerOptions:
        return SchedulerOptions(
            algorithm=self.algorithm,
            coeff_bound=self.coeff_bound,
            fuse=self.fuse,
        )

    def as_dict(self) -> dict:
        """Dict form for manifests and cache keys, in field order.

        A field declared ``omit`` (``rar``, ``parallel_reductions``) is
        left out while it holds its default, so every cache key and
        manifest written before the knob existed stays bit-identical; a
        non-default value *is* folded in.  The :data:`RETIRED_OPTIONS`
        pairs are always written, in their old place after
        ``coeff_bound``.
        """
        d = {}
        for f in _FIELDS:
            value = getattr(self, f.name)
            if not (f.metadata.get("omit") and value == f.default):
                d[f.name] = value
            if f.name == "coeff_bound":
                d.update(RETIRED_OPTIONS)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineOptions":
        """Inverse of :meth:`as_dict`; unknown keys are rejected loudly."""
        return cls(**option_kwargs(data))


_FIELDS = dataclasses.fields(PipelineOptions)


def option_kwargs(data: Mapping) -> dict:
    """``data`` as :class:`PipelineOptions` keyword arguments — the one key
    rule, for :meth:`PipelineOptions.from_dict` and the daemon's request
    resolution: the :data:`RETIRED_OPTIONS` pairs are dropped (a retired
    option at any other value is a ``ValueError``), so is ``backend`` at any
    value (where a kernel runs is :class:`~repro.exec.ExecutionOptions`'),
    and any other key that is not a field is a ``ValueError``."""
    data = dict(data)
    data.pop("backend", None)
    for key, kept in RETIRED_OPTIONS.items():
        value = data.pop(key, kept)
        if value != kept:
            raise ValueError(
                f"{key}={value!r} is retired: HiGHS answers every lexmin "
                f"(only {kept!r} is accepted)"
            )
    extra = set(data) - set(PipelineOptions.__dataclass_fields__)
    if extra:
        raise ValueError(f"unknown PipelineOptions fields: {sorted(extra)}")
    return data


@dataclass
class TimingBreakdown(Record):
    """Seconds per pipeline stage (the Fig. 5 components), and their sum.

    The wall time inside ILP solves, a part of ``auto_transformation``, is
    ``SchedulerStats.solve.solve_seconds``.
    """

    dependence_analysis: float = 0.0
    auto_transformation: float = 0.0
    code_generation: float = 0.0
    misc: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.dependence_analysis
            + self.auto_transformation
            + self.code_generation
            + self.misc
        )

    def as_dict(self) -> dict[str, float]:
        return {**super().as_dict(), "total": self.total}


@dataclass
class OptimizationResult:
    program: Program                  # post-ISS program actually scheduled
    source_program: Program           # what the user passed in
    schedule: Schedule
    tiled: TiledSchedule
    code: object                      # GeneratedCode
    timing: TimingBreakdown
    scheduler_stats: Optional[SchedulerStats] = None
    dep_stats: Optional[DepStats] = None
    used_iss: bool = False
    used_diamond: bool = False
    options: Optional[PipelineOptions] = None

    def summary(self) -> str:
        lines = [
            f"{self.source_program.name} [{self.options.algorithm if self.options else '?'}]",
            f"  ISS: {self.used_iss}, diamond: {self.used_diamond}",
            f"  schedule depth {self.schedule.depth}, "
            f"bands {[str(b) for b in self.schedule.bands]}",
            f"  timing: {self.timing.as_dict()}",
        ]
        return "\n".join(lines)

    # -- execution --------------------------------------------------------

    def run(
        self,
        arrays: dict,
        params: dict,
        exec_options: Optional[ExecutionOptions] = None,
        stats: Optional[ExecStats] = None,
    ) -> ExecStats:
        """Execute the optimized kernel in place over ``arrays``.

        :func:`repro.exec.compile_kernel` picks the backend that
        ``exec_options`` names (default: ``ExecutionOptions()``, Python),
        falling back to Python with the reason in ``fallback_reason`` unless
        ``strict``.  The kernel is memoized per ``(backend, cc, cache_dir,
        strict)`` and dropped by :meth:`__getstate__` (a pickled result
        recompiles through the artifact cache); a repeat reports the first
        compile half with ``compile_seconds`` 0 and, for a native kernel, the
        ``"memory"`` tier.
        """
        from repro.exec import compile_kernel

        opts = exec_options or ExecutionOptions()
        memo = self.__dict__.setdefault("_kernels", {})
        key = (opts.backend, opts.cc, opts.cache_dir, opts.strict)
        if key in memo:
            kernel, built = memo[key]
        else:
            built = ExecStats()
            kernel = compile_kernel(self.tiled, opts, built, code=self.code)
            # a repeat compiles nothing; its artifact, if any, is loaded
            memo[key] = kernel, dataclasses.replace(
                built, compile_seconds=0.0,
                artifact_cache=built.artifact_cache and "memory",
            )
        stats = stats if stats is not None else ExecStats()
        for name in COMPILE_HALF:
            setattr(stats, name, getattr(built, name))
        kernel.run(arrays, params, threads=opts.threads, stats=stats)
        return stats

    def __getstate__(self) -> dict:
        """Compiled native kernels are caches, not state (the
        ``GeneratedCode._func`` rule, one level up)."""
        state = self.__dict__.copy()
        state.pop("_kernels", None)
        return state

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        """Serialize the full result as a JSON string.

        Everything is structural — programs, schedules, generated source,
        timings, solver/dependence counters — so results written by a suite
        worker land in manifests unchanged and :meth:`from_json` rebuilds an
        object equal to the original.  The compiled kernel handle is a cache
        and is rebuilt lazily on first use after deserialization.

        Each structure is written once: ``source_program`` is ``null`` when
        it *is* ``program`` (index-set splitting did not split), and
        ``tiled`` leaves out ``source_schedule`` when it *is* ``schedule``
        (every result :func:`optimize` makes); :meth:`from_json` re-links
        both.
        """
        from repro.frontend.serialize import program_to_dict

        tiled = self.tiled.to_dict()
        if self.tiled.source_schedule is self.schedule:
            del tiled["source_schedule"]
        payload = {
            "version": RESULT_FORMAT_VERSION,
            "program": program_to_dict(self.program),
            "source_program": (
                None if self.source_program is self.program
                else program_to_dict(self.source_program)
            ),
            "schedule": self.schedule.to_dict(),
            "tiled": tiled,
            "code": {
                "python_source": self.code.python_source,
                "traced": self.code.traced,
            },
            "timing": self.timing.as_dict(),
            "scheduler_stats": (
                None if self.scheduler_stats is None
                else self.scheduler_stats.as_dict()
            ),
            "dep_stats": (
                None if self.dep_stats is None else self.dep_stats.as_dict()
            ),
            "used_iss": self.used_iss,
            "used_diamond": self.used_diamond,
            "options": None if self.options is None else self.options.as_dict(),
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "OptimizationResult":
        """Inverse of :meth:`to_json`; reads format v1 (both copies
        written out) and v2 (each structure once), refuses any other."""
        return cls._from_payload(json.loads(text))

    @classmethod
    def _from_payload(cls, data: dict) -> "OptimizationResult":
        """:meth:`from_json` of an already parsed payload."""
        from repro.codegen import make_generated_code
        from repro.core.scheduler import SchedulerStats
        from repro.deps import DepStats
        from repro.frontend.serialize import program_from_dict

        version = data.get("version")
        if version not in _READABLE_RESULT_FORMATS:
            raise ValueError(
                f"result serialized with format v{version}, this build "
                f"reads v{' and v'.join(map(str, _READABLE_RESULT_FORMATS))}"
            )
        program = program_from_dict(data["program"])
        source_program = (
            program if data["source_program"] is None
            else program_from_dict(data["source_program"])
        )
        schedule = Schedule.from_dict(program, data["schedule"])
        tiled = TiledSchedule.from_dict(program, data["tiled"])
        if "source_schedule" not in data["tiled"]:
            tiled.source_schedule = schedule
        code = make_generated_code(
            data["code"]["python_source"], tiled, traced=data["code"]["traced"]
        )
        return cls(
            program=program,
            source_program=source_program,
            schedule=schedule,
            tiled=tiled,
            code=code,
            timing=TimingBreakdown.from_dict(data["timing"]),
            scheduler_stats=(
                None if data["scheduler_stats"] is None
                else SchedulerStats.from_dict(data["scheduler_stats"])
            ),
            dep_stats=(
                None if data["dep_stats"] is None
                else DepStats.from_dict(data["dep_stats"])
            ),
            used_iss=data["used_iss"],
            used_diamond=data["used_diamond"],
            options=(
                None if data["options"] is None
                else PipelineOptions.from_dict(data["options"])
            ),
        )


def resolve_program(program: Union[Program, str]) -> Program:
    """``program`` itself, or the registered workload it names."""
    if isinstance(program, str):
        # Late import: repro.workloads imports PipelineOptions from here.
        from repro.workloads import get_workload

        return get_workload(program).program()
    if not isinstance(program, Program):
        raise TypeError(
            f"expected a Program or a workload name, got "
            f"{type(program).__name__}; see repro.workloads.get_workload"
        )
    return program


def optimize(
    program: Union[Program, str], options: Optional[PipelineOptions] = None
) -> OptimizationResult:
    """Run the full polyhedral source-to-source pipeline on ``program``.

    ``program`` may be a :class:`Program` or a registered workload name
    (resolved through :func:`repro.workloads.get_workload`); anything else
    is a :class:`TypeError`.
    """
    options = options or PipelineOptions()
    program = resolve_program(program)
    guard = nullcontext() if options.deps_cache else cache_disabled()
    with guard:
        return _optimize(program, options)


def _optimize(program: Program, options: PipelineOptions) -> OptimizationResult:
    timing = TimingBreakdown()
    dep_stats = DepStats()

    deps = compute_dependences(program, dep_stats)
    timing.dependence_analysis = dep_stats.analysis_seconds

    used_iss = False
    work = program
    if options.iss:
        t0 = time.perf_counter()
        work, used_iss = index_set_split(program, deps)
        timing.auto_transformation += time.perf_counter() - t0
        if used_iss:
            deps = compute_dependences(work, dep_stats)
            timing.dependence_analysis = dep_stats.analysis_seconds

    # Reduction relaxation: detected accumulation statements give up their
    # self-dependences *before* the DDG is built, so every scheduling path
    # (exact, quick, diamond) sees the relaxed legality set and the
    # parallelism pass can prove the reduction dimension parallel.  The
    # relaxed dependences are re-checked after scheduling to tag the rows
    # whose parallelism rests on the relaxation (the emitters discharge it).
    reductions: list = []
    relaxed: list = []
    if options.parallel_reductions != "off":
        from repro.core.reductions import detect_reductions, relax_reduction_deps

        reductions = detect_reductions(work)
        deps, relaxed = relax_reduction_deps(deps, reductions)

    # RAR reuse relations: computed on the scheduled (post-ISS) program,
    # handed to the exact scheduler as objective-only rows — never to the
    # DDG, so legality, SCC cuts, and parallelism marking are untouched.
    rar_deps: list = []
    if options.rar:
        from repro.deps.rar import compute_rar_dependences

        rar_deps = compute_rar_dependences(work, dep_stats)
        timing.dependence_analysis = dep_stats.analysis_seconds

    ddg = DependenceGraph(work, deps, stats=dep_stats)
    sched_opts = options.scheduler_options()

    schedule: Optional[Schedule] = None
    used_diamond = False
    stats = SchedulerStats()
    stats.scheduler_mode = options.scheduler
    stats.reductions_detected = len(reductions)
    stats.reductions_relaxed = len(relaxed)

    # Cross-request structural warm-start (repro.core.skeleton): when a
    # skeleton store is configured, load any record for this request's
    # structural fingerprint and hand the scheduler a replay context.  The
    # context only answers per-level solves whose exact solve key matches
    # a recorded one — replay is bit-identical to a cold solve by
    # construction — so a rescaled or edited request silently degrades to
    # cold solving, never to a different schedule.
    from repro.core.skeleton import WarmStart, skeleton_store_from_env

    store = skeleton_store_from_env()
    fingerprint = prior = warm = None
    if store is not None:
        from repro.core.skeleton import structural_fingerprint
        from repro.frontend.serialize import program_to_dict

        fingerprint = structural_fingerprint(
            program_to_dict(program), options.as_dict()
        )
        prior = store.get(fingerprint)
        warm = WarmStart(prior.get("solves") if prior else None)

    t0 = time.perf_counter()
    if options.scheduler in ("quick", "auto"):
        from repro.core.quick import attempt_quick_schedule

        schedule = attempt_quick_schedule(
            work, ddg, sched_opts,
            mode=options.scheduler, diamond=options.diamond, stats=stats,
        )
    if schedule is not None:
        stats.scheduler_path = "quick"
    else:
        # The exact Pluto+ path — either requested outright or the quick
        # heuristic's fallback (stats.fallback_reason says why).  Each
        # scheduler run tracks ordering in its own Ordering and never writes
        # to the DDG, so a failed quick attempt leaves no residue and the
        # fallback is bit-compatible with scheduler="exact".
        stats.scheduler_path = (
            "exact" if options.scheduler == "exact" else "fallback"
        )
        if options.diamond:
            schedule = find_diamond_schedule(
                work, ddg, sched_opts, stats=stats, warm=warm
            )
            used_diamond = schedule is not None
        if schedule is None:
            scheduler = PlutoScheduler(
                work, ddg, sched_opts, warm=warm, rar=rar_deps
            )
            scheduler.stats = stats  # accumulate alongside any diamond attempt
            schedule = scheduler.schedule()
    from repro.core.quick import fusion_groups_of

    stats.fusion_groups = fusion_groups_of(schedule)
    timing.auto_transformation += time.perf_counter() - t0

    if store is not None:
        stats.structural_warm_start = warm.hits
        stats.structural_path = (
            "miss" if prior is None
            else ("hit" if warm.misses == 0 else "fallback")
        )
        if warm.dirty or prior is None:
            store.merge(
                fingerprint,
                warm.solves,
                farkas=warm.farkas,
                meta={
                    "program": program.name,
                    "scheduler_path": stats.scheduler_path,
                    "fallback_reason": stats.fallback_reason,
                    "used_diamond": used_diamond,
                    "depth": schedule.depth,
                    "bands": [str(b) for b in schedule.bands],
                },
            )

    t0 = time.perf_counter()
    red_carried = mark_parallelism(schedule, ddg, relaxed=relaxed)
    if relaxed:
        from repro.core.reductions import tag_reduction_rows

        tag_reduction_rows(
            schedule, red_carried, reductions, options.parallel_reductions
        )
    if options.tile:
        tiled = tile_schedule(
            schedule,
            tile_size=options.tile_size,
            min_band_width=options.min_band_width,
        )
    else:
        tiled = untiled_schedule(schedule)
    if options.l2tile:
        tiled = l2_tile_schedule(tiled, ratio=options.l2_ratio)
    if options.intra_tile:
        tiled = optimize_intra_tile(tiled)
    timing.misc = time.perf_counter() - t0

    t0 = time.perf_counter()
    code = generate_python(tiled)
    # Force scan-system construction and source emission (the expensive part
    # of code generation) inside the timed region; compilation is lazy.
    _ = code.python_source
    timing.code_generation = time.perf_counter() - t0

    return OptimizationResult(
        program=work,
        source_program=program,
        schedule=schedule,
        tiled=tiled,
        code=code,
        timing=timing,
        scheduler_stats=stats,
        dep_stats=dep_stats,
        used_iss=used_iss,
        used_diamond=used_diamond,
        options=options,
    )
