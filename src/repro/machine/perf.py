"""Analytic performance estimation for Fig. 6.

The paper's execution-time study compares three variants per benchmark:

* ``icc-omp-vec`` — original code, outer space loop parallel, innermost loop
  vectorized;
* ``pluto``       — for the periodic suite, identical to icc-omp-vec (no
  time tiling possible, Section 4.2);
* ``pluto+``      — diamond time-tiled with concurrent start.

This module reproduces the comparison's *shape* with a roofline model over
the Table 1 machine: an untiled sweep streams the whole grid through memory
every time step; a time-tiled sweep reuses each tile's working set for ~one
tile-height of time steps, cutting traffic by that factor and turning the
bandwidth-bound baseline compute-bound.  Parallel scaling follows the
variant's parallelism structure (space-parallel, pipelined wavefront, or
concurrent start), and the NUMA sensitivity the paper observed for
lbm-ldc-d3q27 under scatter affinity is modeled as a bandwidth penalty for
untiled runs past one socket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.machine.model import MachineModel, XEON_E5_2680
from repro.workloads.base import PerfSpec, Workload

__all__ = [
    "PerfEstimate",
    "ExecutionMode",
    "classify_result",
    "estimate",
    "speedup",
]

#: extra work/misses introduced by skewed tile boundaries
_TILING_COMPUTE_OVERHEAD = 1.15
#: fraction of ideal pipeline throughput a wavefront schedule achieves
_WAVEFRONT_EFFICIENCY = 0.7


class ExecutionMode:
    SPACE_PARALLEL = "space-parallel"   # untiled, outer space loop parallel
    WAVEFRONT = "wavefront-tiled"       # time-tiled band, pipelined start
    DIAMOND = "diamond-tiled"           # time-tiled band, concurrent start
    SEQUENTIAL = "sequential"


@dataclass
class PerfEstimate:
    seconds: float
    gflops: float
    mlups: float
    bound: str                          # "memory" | "compute"
    mode: str
    cores: int


def classify_result(result) -> str:
    """Execution mode of an :class:`~repro.pipeline.OptimizationResult`."""
    if result.used_diamond:
        return ExecutionMode.DIAMOND
    tiled = result.tiled
    time_tiled = any(
        b.width >= 2
        and all(tiled.rows[l].kind == "tile" for l in b.levels())
        for b in tiled.bands
    )
    if time_tiled and _band_covers_time(result):
        return ExecutionMode.WAVEFRONT
    if any(r.parallel for r in tiled.rows):
        return ExecutionMode.SPACE_PARALLEL
    # An untiled sequential-outer schedule still has inner parallelism for
    # the stencil codes considered; treat explicit absence as sequential.
    return ExecutionMode.SEQUENTIAL


def _band_covers_time(result) -> bool:
    """Whether some tiled band's hyperplanes involve the outermost (time)
    iterator — i.e. the transformation actually tiles time."""
    for band in result.tiled.bands:
        for level in band.levels():
            row = result.tiled.rows[level]
            if row.kind != "tile":
                continue
            for stmt in result.program.statements:
                expr = row.expr_for(stmt)
                if stmt.space.dims and expr.coeff_of(stmt.space.dims[0]):
                    return True
    return False


def _problem_volume(spec: PerfSpec, sizes: Mapping[str, int]) -> tuple[float, float]:
    """(points per sweep, time steps)."""
    points = 1.0
    for p in spec.space_params:
        points *= sizes[p]
    steps = float(sizes[spec.time_param]) if spec.time_param else 1.0
    return points, steps


def _reuse_factor(
    spec: PerfSpec,
    machine: MachineModel,
    tile_size: int,
) -> float:
    """Time-steps of reuse a tile achieves before spilling its working set.

    A tile spans ``tile_size`` points in each space dimension; its working
    set (a couple of time planes of the tile's footprint) must fit the
    per-core cache share for the full ``tile_size`` time-height of reuse.
    """
    d_space = max(len(spec.space_params), 1)
    footprint = (tile_size ** d_space) * spec.bytes_per_point
    budget = machine.cache_per_core_bytes()
    reuse = float(tile_size)
    while footprint > budget and reuse > 1:
        reuse /= 2.0
        footprint /= 2.0
    return max(reuse, 1.0)


def estimate(
    workload: Workload,
    mode: str,
    cores: int,
    machine: MachineModel = XEON_E5_2680,
    sizes: Optional[Mapping[str, int]] = None,
    tile_size: int = 32,
) -> PerfEstimate:
    """Predict execution time for ``workload`` run as ``mode`` on ``cores``."""
    spec = workload.perf
    if spec is None:
        raise ValueError(f"workload {workload.name} has no PerfSpec")
    sizes = dict(sizes or workload.sizes)
    points, steps = _problem_volume(spec, sizes)
    total_flops = points * steps * spec.flops_per_point
    total_bytes = points * steps * spec.bytes_per_point

    numa_sensitive = "d3q27" in workload.name or len(spec.space_params) >= 3

    if mode in (ExecutionMode.SPACE_PARALLEL, ExecutionMode.SEQUENTIAL):
        eff_cores = cores if mode == ExecutionMode.SPACE_PARALLEL else 1
        compute_s = total_flops / (
            machine.compute_gflops(eff_cores, spec.vector_efficiency) * 1e9
        )
        bw = machine.bandwidth_gbs(eff_cores)
        if numa_sensitive and eff_cores > machine.cores_per_socket:
            # Scatter affinity + untiled 3-d sweeps: remote-socket traffic
            # erodes effective bandwidth past one socket (Section 4.2).
            over = eff_cores - machine.cores_per_socket
            bw *= max(1.0 - 0.06 * over, 0.55)
        memory_s = total_bytes / (bw * 1e9)
        seconds = max(compute_s, memory_s)
        bound = "compute" if compute_s >= memory_s else "memory"
    elif mode in (ExecutionMode.DIAMOND, ExecutionMode.WAVEFRONT):
        reuse = _reuse_factor(spec, machine, tile_size)
        reuse = min(reuse, steps)
        traffic = total_bytes / reuse
        par_eff = 1.0 if mode == ExecutionMode.DIAMOND else _WAVEFRONT_EFFICIENCY
        compute_s = (
            total_flops
            * _TILING_COMPUTE_OVERHEAD
            / (machine.compute_gflops(cores, spec.vector_efficiency) * par_eff * 1e9)
        )
        memory_s = traffic / (machine.bandwidth_gbs(cores) * 1e9)
        sync_s = (
            (steps / max(tile_size, 1))
            * machine.barrier_latency_us
            * 1e-6
            * math.log2(max(cores, 2))
        )
        seconds = max(compute_s, memory_s) + sync_s
        bound = "compute" if compute_s >= memory_s else "memory"
    else:
        raise ValueError(f"unknown execution mode {mode!r}")

    return PerfEstimate(
        seconds=seconds,
        gflops=total_flops / seconds / 1e9,
        mlups=points * steps / seconds / 1e6,
        bound=bound,
        mode=mode,
        cores=cores,
    )


def speedup(a: PerfEstimate, b: PerfEstimate) -> float:
    """How much faster ``b`` is than ``a``."""
    return a.seconds / b.seconds

