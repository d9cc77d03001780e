"""``polybench-compile``: the paper's Table 3 / Fig. 5, compile time only.

All 27 registered ``polybench`` kernels (the full set, not a slice) with
the ``plutoplus`` pipeline, exact scheduler, paper flags, Python codegen.
The PolyCache is cleared before every request, so each is a cold compile.
``core.scheduler`` + ``ilp`` are ~93 % of the sweep and ``exec`` is 0: the
mirror image of ``periodic-native``.  No C and no execution in the timed
region; the transformed kernels run at ``small_sizes`` afterwards, against
references that do not come from the compiler.
"""

from __future__ import annotations

from repro.api import optimize
from repro.polyhedra.cache import global_cache
from repro.workloads import all_workloads

from benchmarks.e2e.harness import Context, Samples, build_programs, layer_metrics
from benchmarks.e2e.reference import check_polybench
from benchmarks.e2e.staged import traced_request

#: sweeps over the kernel set at --seconds 20 (one sweep is ~22 s)
SWEEPS = 1
#: --check: the first few registered kernels only
CHECK_KERNELS = 4


def run(ctx: Context) -> tuple[dict, list[str]]:
    workloads = all_workloads("polybench")
    if ctx.check:
        workloads = workloads[:CHECK_KERNELS]
    programs, metrics = build_programs(workloads)
    ctx.setup_done()

    times = {w.name: Samples() for w in workloads}
    results, labels = {}, {}
    for sweep in range(ctx.reps(SWEEPS)):
        for w in ctx.shuffled(workloads):
            global_cache().clear()
            with ctx.op(f"optimize {w.name}") as op:
                result = optimize(programs[w.name], w.pipeline_options("plutoplus"))
            if op.failed:
                continue
            times[w.name].add(op.seconds)
            results[w.name] = result
            ctx.expect_legal(op, result)
            if sweep == 0:
                with ctx.checking():
                    agrees, labels[w.name] = check_polybench(
                        w, programs[w.name], result.code, ctx.seed
                    )
                ctx.expect_output(
                    op, agrees, f"output differs from the {labels[w.name]} reference"
                )

    done = [w for w in workloads if w.name in results]
    metrics["compile_s"] = sum(times[w.name].median for w in done)
    report = ["kernel               optimize_s (median)   n   reference"]
    report += [
        f"{w.name:<20} {times[w.name].median:>10.4f} {times[w.name].n:>11}   "
        f"{labels[w.name]}"
        for w in done
    ]

    if ctx.tracer is not None:
        staged = []
        for w in done:
            global_cache().clear()
            staged.append(traced_request(
                ctx.tracer, w.name, programs[w.name],
                w.pipeline_options("plutoplus"), results[w.name],
            ))
        metrics.update(layer_metrics(staged, ctx.tracer))
        metrics["harness.stage_sum_share"] = (
            sum(s.seconds for s in staged) / metrics["compile_s"]
        )
    metrics.update(ctx.common_metrics())
    return metrics, report
