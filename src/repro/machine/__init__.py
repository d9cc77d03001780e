"""Analytic machine and performance model (Table 1 / Fig. 6 substitute)."""

from repro.machine.cache import CacheConfig, CacheSim, simulate_schedule_misses
from repro.machine.model import MachineModel, XEON_E5_2680
from repro.machine.perf import (
    ExecutionMode,
    PerfEstimate,
    classify_result,
    estimate,
    speedup,
)

__all__ = [
    "CacheConfig",
    "CacheSim",
    "ExecutionMode",
    "MachineModel",
    "PerfEstimate",
    "XEON_E5_2680",
    "classify_result",
    "estimate",
    "simulate_schedule_misses",
    "speedup",
]
