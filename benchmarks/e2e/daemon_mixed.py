"""``daemon-mixed``: a real ``python -m repro serve`` driven closed-loop.

One ``repro.server.ServerClient`` connection sends the next request only
when the previous reply is in (callers of a scheduling daemon wait for
their schedule, hence closed loop).  Set-up starts the daemon with its
defaults (async loop, warm pool, skeleton dir under the cache dir) and
fills a hot set of 8 keys.  The timed plan is 99.6 % hot-set requests
(cache hits) and 0.4 % never-seen ``tile_size`` values on six of those
kernels: exact-cache misses that are skeleton-warm in the worker.  The
only workload where the ``server`` layer (protocol, cache, single-flight,
pool, response splice) does the work.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from statistics import median

from repro.api import optimize
from repro.server import ServerClient, protocol
from repro.workloads import get_workload

from benchmarks.e2e.env import RUN_SECONDS, pin, proc_tree_cpu_seconds
from benchmarks.e2e.harness import Context

HOT = (
    "fig1-skew", "fig2-symmetric-consumer", "fig3-symmetric-deps", "gemm",
    "mvt", "jacobi-1d-imper", "lu", "heat-1dp",
)
MISS_KERNELS = ("fig1-skew", "gemm", "mvt", "jacobi-1d-imper", "lu", "heat-1dp")

#: requests at --seconds 20 (~2 000 req/s on the sizing box, so ~5 s), and
#: the share of them that miss; both stratified so every seed sends the
#: same number of requests per key, in another order
REQUESTS = 10_000
MISS_SHARE = 0.004
CHECK_REQUESTS = 2_000
#: miss responses compared field by field with an in-process optimize()
#: (each costs a compile in the harness; the rest are checked against the
#: hot-set schedule of their kernel, which does not depend on tile_size)
MISSES_RECOMPUTED = 6

CONNECTIONS = 1
JOBS = 1
#: requests between two speed calibrations of the harness's CPU
CALIBRATE_EVERY = 250

#: fields of the result payload that two independent computations share
#: (timings and solver counters are not among them)
DETERMINISTIC_FIELDS = (
    "schedule", "tiled", "code", "program", "options",
    "used_iss", "used_diamond", "version",
)


def _plan(ctx: Context) -> list[tuple[str, int]]:
    """``(workload, tile_size)`` per request; ``tile_size`` 0 = hot key."""
    n = CHECK_REQUESTS if ctx.check else round(REQUESTS * ctx.seconds / RUN_SECONDS)
    per_kernel = max(1, round(n * MISS_SHARE / len(MISS_KERNELS)))
    sizes = ctx.rng.sample(range(40, 4000), per_kernel * len(MISS_KERNELS))
    plan = [
        (k, sizes.pop()) for k in MISS_KERNELS for _ in range(per_kernel)
    ]
    hot_each = (n - len(plan)) // len(HOT)
    plan += [(k, 0) for k in HOT for _ in range(hot_each)]
    ctx.rng.shuffle(plan)
    return plan


def _in_process(name: str, tile_size: int) -> dict:
    w = get_workload(name)
    overrides = {"tile_size": tile_size} if tile_size else {}
    result = optimize(w.program(), w.pipeline_options("plutoplus", **overrides))
    return json.loads(result.to_json())


def run(ctx: Context) -> tuple[dict, list[str]]:
    ncpu = os.cpu_count() or 1
    daemon_cpus = set(range(ncpu - 1)) or {0}
    # short relative socket path: AF_UNIX names are capped at ~107 bytes
    # and the checkout may sit deep in the file system
    os.chdir(ctx.tmp)
    sock = "d.sock"

    t0 = time.perf_counter()
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock,
         "--cache-dir", "cache", "--jobs", str(JOBS)],
        stderr=subprocess.PIPE, text=True,
        preexec_fn=lambda: pin(daemon_cpus),
    )
    try:
        return _drive(ctx, daemon, sock, t0)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.communicate()


def _drive(ctx, daemon, sock, t_start) -> tuple[dict, list[str]]:
    deadline = time.time() + 60
    while not os.path.exists(sock):
        if daemon.poll() is not None:
            raise RuntimeError(f"daemon died on start-up:\n{daemon.stderr.read()}")
        if time.time() > deadline:
            raise RuntimeError("daemon never bound its socket")
        time.sleep(0.005)
    client = ServerClient(socket_path=sock)
    client.ping()
    start_s = time.perf_counter() - t_start

    first: dict[tuple, dict] = {}      # first response per distinct key
    t0 = time.perf_counter()
    for name in HOT:
        with ctx.op(f"fill {name}", timed=False) as op:
            response = client.optimize(name)
            ctx.expect(op, response.get("status") == "ok",
                       f"answered {response.get('status')}")
            first[name, 0] = response
    cold_fill_s = time.perf_counter() - t0
    plan = _plan(ctx)
    ctx.setup_done()

    # ---- timed: the closed loop ------------------------------------------
    tracer = ctx.tracer
    hit_lat: list[float] = []
    miss_lat: list[float] = []
    busy = errors = 0
    sources = {k: r["result"]["code"]["python_source"] for (k, _), r in first.items()}
    cpu_daemon0 = proc_tree_cpu_seconds(daemon.pid)
    cpu_client0 = time.process_time()
    in_request = calibrating = 0.0
    perf = time.perf_counter
    t_loop = t_calibrated = perf()
    for i, (name, tile_size) in enumerate(plan):
        if i % CALIBRATE_EVERY == 0 and i:
            # speed calibration for the stretch just served; its own
            # duration is taken out of the loop's wall time below
            t0 = perf()
            ctx.calibrator.after(t0 - t_calibrated)
            t_calibrated = perf()
            calibrating += t_calibrated - t0
        ctx.attempted += 1
        t0 = perf()
        try:
            response = client.optimize(
                name, options={"tile_size": tile_size} if tile_size else None
            )
        except (OSError, protocol.ProtocolError) as e:
            ctx.failed += 1
            errors += 1
            ctx.failures.append(f"request {name}: {type(e).__name__}: {e}")
            break  # the connection is gone; nothing more can be sent
        dt = perf() - t0
        in_request += dt
        status = response.get("status")
        if status != "ok":
            ctx.failed += 1
            busy += status == "busy"
            errors += status != "busy"
            continue
        cache = response["cache"]
        if tracer is not None:
            tracer.add("server.request", t0, t0 + dt, workload=name, cache=cache)
        if cache.startswith("hit"):
            hit_lat.append(dt)
            if tile_size or response["result"]["code"]["python_source"] != sources[name]:
                ctx.failed += 1
                ctx.failures.append(f"request {name}/{tile_size}: unexpected {cache}")
        else:
            miss_lat.append(dt)
            first[name, tile_size] = response
    loop_s = perf() - t_loop - calibrating
    cpu_client = time.process_time() - cpu_client0
    cpu_daemon = proc_tree_cpu_seconds(daemon.pid) - cpu_daemon0
    ctx.timed_ops += len(plan)
    ctx.timed_seconds += loop_s

    stats = client.stats()["stats"]["server"]
    client.close()
    t0 = time.perf_counter()
    with ctx.op("daemon shutdown (SIGTERM)", timed=False) as op:
        daemon.send_signal(signal.SIGTERM)
        _, err = daemon.communicate(timeout=60)
        ctx.expect(op, daemon.returncode == 0,
                   f"exit {daemon.returncode}: {err.strip()[-300:]}")
        ctx.expect(op, not os.path.exists(sock), "socket left behind")
    shutdown_s = time.perf_counter() - t0

    # ---- every distinct response against an in-process compile -----------
    misses = [key for key in first if key[1]]
    recompute = set(ctx.rng.sample(misses, min(MISSES_RECOMPUTED, len(misses))))
    with ctx.checking():
        hot_results = {name: _in_process(name, 0) for name in HOT}
        for (name, tile_size), response in first.items():
            got = response["result"]
            if not tile_size or (name, tile_size) in recompute:
                want = _in_process(name, tile_size) if tile_size else hot_results[name]
                wrong = [f for f in DETERMINISTIC_FIELDS if got[f] != want[f]]
            else:
                wrong = [
                    f for f, ok in (
                        ("schedule", got["schedule"] == hot_results[name]["schedule"]),
                        ("options", got["options"]["tile_size"] == tile_size),
                    ) if not ok
                ]
            if wrong:
                ctx.mismatches += 1
                ctx.failed += 1
                ctx.failures.append(
                    f"response {name}/{tile_size or 'default'} differs from "
                    f"the in-process optimize(): {wrong}"
                )

    served = len(hit_lat) + len(miss_lat)
    line_bytes = {
        name: len(protocol.encode_message(first[name, 0])) for name in HOT
    }
    metrics = {
        "compile_s": sum(miss_lat),
        "server.start_s": start_s,
        "server.cold_fill_s": cold_fill_s,
        "server.shutdown_s": shutdown_s,
        "server.hits": float(len(hit_lat)),
        "server.misses": float(len(miss_lat)),
        "server.hit_ratio": len(hit_lat) / served if served else 0.0,
        "server.busy": float(busy),
        "server.errors": float(errors),
        "server.response_bytes_p50": median([line_bytes[name] for name, _ in plan]),
        "server.daemon_cpu_ms_per_request": cpu_daemon / len(plan) * 1e3,
        "server.client_cpu_ms_per_request": cpu_client / len(plan) * 1e3,
        "server.pool_dispatches": float(stats["pool"]["dispatches"]),
        "server.pool_reuses": float(stats["pool"]["reuses"]),
        "server.structural_hits": float(stats["structural_hits"]),
        "harness.generator_cpu_share": cpu_client / loop_s,
        "harness.stage_sum_share": in_request / loop_s,
    }
    if hit_lat:
        hit_lat.sort()
        metrics["hit_p50_ms"] = median(hit_lat) * 1e3
        metrics["server.hit_p99_ms"] = hit_lat[int(len(hit_lat) * 0.99)] * 1e3
    if miss_lat:
        miss_lat.sort()
        metrics["miss_p50_ms"] = median(miss_lat) * 1e3
        metrics["server.miss_p90_ms"] = miss_lat[int(len(miss_lat) * 0.9)] * 1e3
    report = [
        f"{CONNECTIONS} connection, --jobs {JOBS}; {len(plan)} requests in "
        f"{loop_s:.3f} s: {len(hit_lat)} hits, {len(miss_lat)} computed, "
        f"{busy} busy, {errors} errors",
        f"daemon reports: {stats['hits_memory']} memory hits, "
        f"{stats['hits_disk']} disk hits, {stats['misses']} misses, "
        f"structural {stats['structural_hits']}/{stats['structural_misses']}"
        f"/{stats['structural_fallbacks']} (hit/miss/fallback)",
        f"{len(first)} distinct responses checked against in-process "
        f"optimize() ({len(HOT) + len(recompute)} in full, the rest on the "
        f"schedule): {ctx.mismatches} differ",
    ]
    metrics.update(ctx.common_metrics())
    return metrics, report
