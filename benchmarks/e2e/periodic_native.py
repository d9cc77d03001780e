"""``periodic-native``: the paper's Fig. 6 claim, measured natively.

heat-1dp and heat-2dp go ``optimize()`` -> ``compile_kernel()`` ->
``kernel.run()`` with the ``plutoplus`` pipeline (ISS + diamond, tile 32),
beside two baselines compiled in set-up: original program order (the
"icc" line of Fig. 6) and the ``pluto`` pipeline.  The only workload where
``core.iss``, ``core.diamond``, ``codegen``, the system compiler and the
native kernel carry the time.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

from repro.api import optimize
from repro.codegen import generate_c_kernel, original_schedule
from repro.exec import (
    ArtifactCache,
    CKernel,
    ExecStats,
    ExecutionOptions,
    compile_kernel,
    find_compiler,
)
from repro.polyhedra.cache import global_cache
from repro.runtime import random_arrays
from repro.workloads import get_workload

from benchmarks.e2e.env import BUILD_DIR
from benchmarks.e2e.harness import (
    Context,
    Samples,
    build_programs,
    geomean,
    layer_metrics,
)
from benchmarks.e2e.reference import HEAT_REFERENCES
from benchmarks.e2e.staged import traced_request


@dataclass(frozen=True)
class Kernel:
    name: str
    sizes: dict
    #: compile the ``plutoplus`` C cold on every run.  heat-2dp's 18 KB of
    #: emitted C keeps ``cc -O3`` busy for 70-80 s, more than a run may
    #: take, so its shared object is built once per checkout into the
    #: content-addressed artifact cache under ``.bench_build/`` (the first
    #: run pays; an emitter change re-keys it) and later runs time the
    #: disk-hit path instead.
    cold_cc: bool

    @property
    def points(self) -> int:
        n = self.sizes["N"]
        return self.sizes["T"] * (n if self.name == "heat-1dp" else n * n)


#: sizes at which original-order C runs >= 0.2 s on the sizing box
#: (128 MB and 77 MB of float64: far beyond the last-level cache)
KERNELS = (
    Kernel("heat-1dp", {"T": 1000, "N": 16000}, cold_cc=True),
    Kernel("heat-2dp", {"T": 64, "N": 384}, cold_cc=False),
)
CHECK_KERNELS = (Kernel("heat-1dp", {"T": 64, "N": 512}, cold_cc=True),)

VARIANTS = ("orig", "pluto", "plutoplus")

#: repetitions at --seconds 20.  The driver's cap leaves ~40 s a run, so
#: these are what fits, not what one would choose: 3 runs per variant and
#: thread count is the smallest sample with a median and quartiles.
OPTIMIZE_REPS = {"heat-1dp": 3, "heat-2dp": 1}
COLD_CC_REPS = 3
RUN_REPS = 3


@dataclass
class State:
    """One kernel through the workload."""

    kernel: Kernel
    workload: object
    program: object
    compiled: dict = field(default_factory=dict)    # variant -> kernel
    result: object = None                           # plutoplus optimize()
    optimize_times: Samples = field(default_factory=Samples)
    cold_cc_times: Samples = field(default_factory=Samples)
    artifact_dir: str = ""                          # where plutoplus's .so is
    runs: dict = field(default_factory=dict)        # (variant, threads) -> Samples

    def ratio(self, num: tuple, den: tuple) -> float:
        return self.runs[num].median / self.runs[den].median


def _c_options(cache_dir) -> ExecutionOptions:
    # strict: without a C compiler every compile_kernel is a failed
    # operation, not a silently timed Python fallback
    return ExecutionOptions(backend="c", strict=True, cache_dir=str(cache_dir))


def run(ctx: Context) -> tuple[dict, list[str]]:
    kernels = CHECK_KERNELS if ctx.check else KERNELS
    threads = (1, 2) if (os.cpu_count() or 1) >= 2 else (1,)
    dirs = (ctx.tmp / f"artifacts-{i}" for i in itertools.count())  # fresh = cold

    # ---- set-up: programs and the two baselines --------------------------
    workloads = [get_workload(k.name) for k in kernels]
    programs, metrics = build_programs(workloads)
    cc_seconds = {v: 0.0 for v in VARIANTS}
    states = []
    for k, w in zip(kernels, workloads):
        st = State(k, w, programs[k.name])
        states.append(st)
        with ctx.op(f"compile_kernel {k.name} orig", timed=False):
            stats = ExecStats()
            st.compiled["orig"] = compile_kernel(
                original_schedule(st.program), _c_options(next(dirs)), stats
            )
            cc_seconds["orig"] += stats.compile_seconds
        with ctx.op(f"optimize {k.name} pluto", timed=False) as op:
            pluto = optimize(st.program, w.pipeline_options("pluto"))
            ctx.expect_legal(op, pluto)
        if op.failed:
            continue
        with ctx.op(f"compile_kernel {k.name} pluto", timed=False):
            stats = ExecStats()
            st.compiled["pluto"] = compile_kernel(
                pluto.tiled, _c_options(next(dirs)), stats
            )
            cc_seconds["pluto"] += stats.compile_seconds
    ctx.setup_done()

    # ---- timed: optimize -> cc -> run, one kernel's arrays at a time -----
    native = {"artifact_hit_s": 0.0, "first_run_s": 0.0, "marshal_s": 0.0,
              "omp_enabled": 0.0}
    for st in ctx.shuffled(states):
        k = st.kernel
        for _ in range(ctx.reps(OPTIMIZE_REPS[k.name])):
            global_cache().clear()
            with ctx.op(f"optimize {k.name} plutoplus") as op:
                result = optimize(st.program, st.workload.pipeline_options("plutoplus"))
            if not op.failed:
                st.result = result
                st.optimize_times.add(op.seconds)
                ctx.expect_legal(op, result)
        if st.result is None:
            continue
        _compile_plutoplus(ctx, st, dirs, native)
        if "plutoplus" in st.compiled:
            _timed_runs(ctx, st, threads, native)

    ran = [st for st in states if ("plutoplus", 1) in st.runs and ("orig", 1) in st.runs]
    plutoplus = [st.compiled["plutoplus"] for st in states if "plutoplus" in st.compiled]
    cc_seconds["plutoplus"] = sum(
        st.cold_cc_times.median for st in states if st.cold_cc_times.n
    )

    def run_sum(variant: str, nthreads: int) -> float:
        return sum(
            st.runs[variant, nthreads].median for st in states
            if (variant, nthreads) in st.runs
        )

    metrics.update({
        "compile_s": sum(st.optimize_times.median for st in states if st.optimize_times.n),
        "cc_s": cc_seconds["plutoplus"],
        "run_s": run_sum("plutoplus", 1),
        "code_bytes": float(sum(len(kern.source.encode()) for kern in plutoplus)),
        "exec.so_bytes": float(sum(os.path.getsize(kern.lib_path) for kern in plutoplus)),
        **{f"exec.cc_{v}_s": cc_seconds[v] for v in VARIANTS},
        **{f"exec.{name}": value for name, value in native.items()},
        **{f"exec.run_{v}_s": run_sum(v, 1) for v in VARIANTS},
    })
    if 2 in threads:
        metrics["run_2t_s"] = run_sum("plutoplus", 2)
        metrics.update({f"exec.run_{v}_2t_s": run_sum(v, 2) for v in VARIANTS})
    if ran:
        # geometric mean over kernels; base of each ratio: original-order C
        metrics["speedup_vs_orig"] = geomean(
            st.ratio(("orig", 1), ("plutoplus", 1)) for st in ran
        )
        metrics["exec.run_iqr_share"] = max(
            s.iqr_share for st in ran for (v, _), s in st.runs.items()
            if v == "plutoplus"
        )
        # computed: domain points of the kernels / measured run_s
        metrics["exec.mpoints_per_s"] = (
            sum(st.kernel.points for st in ran) / 1e6 / metrics["run_s"]
        )
        if 2 in threads:
            metrics["exec.scaling_2t"] = geomean(
                st.ratio(("plutoplus", 1), ("plutoplus", 2)) for st in ran
            )

    report = _report(states, threads)
    if ctx.tracer is not None:
        metrics.update(_traced_pass(ctx, states))
    metrics.update(ctx.common_metrics())
    return metrics, report


def _compile_plutoplus(ctx: Context, st: State, dirs, native: dict) -> None:
    k = st.kernel
    if k.cold_cc:
        for _ in range(ctx.reps(COLD_CC_REPS)):
            st.artifact_dir = next(dirs)
            with ctx.op(f"compile_kernel {k.name} plutoplus (cold)") as op:
                stats = ExecStats()
                kernel = compile_kernel(
                    st.result.tiled, _c_options(st.artifact_dir), stats
                )
                ctx.expect(op, stats.artifact_cache == "compiled",
                           f"expected a cold compile, got {stats.artifact_cache}")
            if not op.failed:
                st.compiled["plutoplus"] = kernel
                st.cold_cc_times.add(op.seconds)
        return
    st.artifact_dir = BUILD_DIR / "artifacts"
    with ctx.op(f"compile_kernel {k.name} plutoplus (per checkout)", timed=False) as op:
        stats = ExecStats()
        st.compiled["plutoplus"] = compile_kernel(
            st.result.tiled, _c_options(st.artifact_dir), stats
        )
    if op.failed:
        return
    if stats.artifact_cache == "compiled":
        # not a metric: it is measured once per checkout, not once per run
        path = BUILD_DIR / "build.json"
        builds = json.loads(path.read_text()) if path.exists() else {}
        builds[k.name] = {"cc_seconds": stats.compile_seconds}
        path.write_text(json.dumps(builds, indent=1))
    else:
        native["artifact_hit_s"] += op.seconds


def _timed_runs(ctx: Context, st: State, threads, native: dict) -> None:
    k = st.kernel
    base = random_arrays(st.program, k.sizes, seed=ctx.seed)
    with ctx.checking():
        want = {n: a.copy() for n, a in base.items()}
        HEAT_REFERENCES[k.name](want, k.sizes)
    # every run starts from the same seeded inputs, copied into one scratch
    # set (a fresh allocation per run costs a page fault per page of a
    # 128 MB array); rep-major, so slow drift of the box spreads over all
    # variants alike
    arrays = {n: np.empty_like(a) for n, a in base.items()}
    reps = ctx.reps(RUN_REPS)
    for nthreads in threads:
        for _ in range(reps):
            for variant in VARIANTS:
                kernel = st.compiled.get(variant)
                if kernel is None:
                    continue
                for n, a in base.items():
                    np.copyto(arrays[n], a)
                stats = ExecStats()
                with ctx.op(f"run {k.name} {variant} {nthreads}t") as op:
                    kernel.run(arrays, k.sizes, threads=nthreads, stats=stats)
                if op.failed:
                    continue
                with ctx.checking():
                    same = all(np.array_equal(arrays[n], want[n]) for n in arrays)
                ctx.expect_output(op, same, "differs bitwise from the numpy reference")
                samples = st.runs.setdefault((variant, nthreads), Samples())
                if (variant, nthreads) == ("plutoplus", 1):
                    if samples.n == 0:
                        native["first_run_s"] += op.seconds  # includes dlopen
                    native["marshal_s"] += stats.marshal_seconds / reps
                    native["omp_enabled"] = float(bool(stats.omp))
                samples.add(op.seconds)


def _report(states, threads) -> list[str]:
    lines = ["kernel      variant    threads   median_s       q1_s       q3_s   n"]
    for st in states:
        for (variant, nthreads), s in sorted(st.runs.items()):
            q1, q3 = s.quartiles
            lines.append(
                f"{st.kernel.name:<11} {variant:<10} {nthreads:>7} "
                f"{s.median:>10.4f} {q1:>10.4f} {q3:>10.4f} {s.n:>3}"
            )
    for st in states:
        name = st.kernel.name
        if ("plutoplus", 1) in st.runs and ("orig", 1) in st.runs:
            line = (
                f"{name}: speedup of plutoplus over original-order C at 1 thread "
                f"(orig median / plutoplus median) = "
                f"{st.ratio(('orig', 1), ('plutoplus', 1)):.3f}"
            )
            if ("pluto", 1) in st.runs:
                line += (
                    f"; over pluto C (pluto median / plutoplus median) = "
                    f"{st.ratio(('pluto', 1), ('plutoplus', 1)):.3f}"
                )
            if 2 in threads:
                line += (
                    f"; plutoplus 2-thread scaling (1t median / 2t median) = "
                    f"{st.ratio(('plutoplus', 1), ('plutoplus', 2)):.3f}"
                )
            lines.append(line)
        if st.optimize_times.n:
            cc = (
                f"cold cc median {st.cold_cc_times.median:.3f} s (n={st.cold_cc_times.n})"
                if st.cold_cc_times.n
                else "cc once per checkout (.bench_build/e2e/build.json)"
            )
            lines.append(
                f"{name}: optimize() median {st.optimize_times.median:.3f} s "
                f"(n={st.optimize_times.n}), {cc}"
            )
    return lines


def _traced_pass(ctx: Context, states) -> dict:
    """Staged pipeline -> C emit -> artifact cache (disk tier: the timed
    pass's directory) -> one verified run."""
    tracer = ctx.tracer
    compiler = find_compiler()
    staged, sources = [], []
    untraced = 0.0
    for st in states:
        kernel = st.compiled.get("plutoplus")
        if kernel is None:
            continue
        k = st.kernel
        global_cache().clear()
        staged.append(traced_request(
            tracer, f"{k.name}/plutoplus", st.program,
            st.workload.pipeline_options("plutoplus"), st.result,
        ))
        untraced += st.optimize_times.median
        with tracer.span("codegen.c_emit"):
            ksrc = generate_c_kernel(staged[-1].tiled)
        if ksrc.source != kernel.source:
            raise RuntimeError(
                f"staged driver drifted from compile_kernel() on {k.name}: c_source"
            )
        sources.append(ksrc.source)
        with tracer.span("exec.artifact_ensure") as span:
            path, span["attrs"]["tier"] = ArtifactCache(st.artifact_dir).ensure(
                ksrc.source, compiler
            )
        arrays = random_arrays(st.program, k.sizes, seed=ctx.seed)
        with ctx.checking():
            want = {n: a.copy() for n, a in arrays.items()}
            HEAT_REFERENCES[k.name](want, k.sizes)
        with ctx.op(f"run {k.name} plutoplus 1t (traced)", timed=False) as op:
            with tracer.span("exec.run", threads=1):
                CKernel(ksrc, path, kernel.artifact_key).run(arrays, k.sizes, threads=1)
            ctx.expect_output(
                op, all(np.array_equal(arrays[n], want[n]) for n in arrays),
                "differs bitwise from the numpy reference",
            )
    out = layer_metrics(staged, tracer)
    out["codegen.c_bytes"] = float(sum(len(s.encode()) for s in sources))
    out["codegen.c_lines"] = float(sum(s.count("\n") for s in sources))
    if untraced:
        out["harness.stage_sum_share"] = sum(s.seconds for s in staged) / untraced
    return out
