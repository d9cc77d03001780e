"""A small set-associative cache simulator, driven by real execution traces.

Fig. 6's speedups rest on one mechanism: time tiling divides a sweep's
main-memory traffic by the tile's time-height because the tile working set
stays cache-resident.  This test-side oracle *checks* that mechanism on the
compiler's own schedules: the code generator's trace mode yields the exact
statement instances executed, the statements' access maps turn each
instance into the array cells it touches, and the simulator counts misses
under an LRU set-associative cache.  ``test_cache.py`` (ablation A5)
compares untiled vs tiled schedules of the same program at equal work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.codegen.python_emit import generate_python
from repro.core.tiling import TiledSchedule
from repro.frontend.ir import Program
from repro.runtime.arrays import infer_shapes, random_arrays

__all__ = ["CacheConfig", "CacheSim", "simulate_schedule_misses"]


@dataclass(frozen=True)
class CacheConfig:
    size_bytes: int = 32 * 1024
    line_bytes: int = 64
    associativity: int = 8
    element_bytes: int = 8

    @property
    def num_sets(self) -> int:
        lines = self.size_bytes // self.line_bytes
        return max(lines // self.associativity, 1)


class CacheSim:
    """LRU set-associative cache over a flat byte address space."""

    def __init__(self, config: CacheConfig):
        self.config = config
        # per set: list of tags, most-recently-used last
        self._sets: list[list[int]] = [[] for _ in range(config.num_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Touch one byte address; returns True on hit."""
        line = address // self.config.line_bytes
        set_idx = line % self.config.num_sets
        tag = line // self.config.num_sets
        ways = self._sets[set_idx]
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            self.hits += 1
            return True
        self.misses += 1
        ways.append(tag)
        if len(ways) > self.config.associativity:
            ways.pop(0)
        return False

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


def _array_layout(program: Program, params: Mapping[str, int]):
    """Flat base offsets and row-major strides for every array."""
    shapes = infer_shapes(program, params)
    base: dict[str, int] = {}
    strides: dict[str, tuple[int, ...]] = {}
    offset = 0
    for name in sorted(shapes):
        shape = shapes[name]
        size = 1
        st = []
        for extent in reversed(shape):
            st.append(size)
            size *= extent
        strides[name] = tuple(reversed(st))
        base[name] = offset
        offset += max(size, 1)
    return base, strides


def simulate_schedule_misses(
    program: Program,
    tsched: TiledSchedule,
    params: Mapping[str, int],
    cache: Optional[CacheConfig] = None,
) -> CacheSim:
    """Execute ``tsched`` (trace mode) and replay its memory accesses.

    Every read access of each executed statement instance is fed to the
    cache first, then every write (write-allocate).  Guarded accesses fire
    only where their guard holds, mirroring the real code.
    """
    config = cache or CacheConfig()
    sim = CacheSim(config)
    base, strides = _array_layout(program, params)
    stmts = {s.name: s for s in program.statements}

    code = generate_python(tsched, trace=True)
    arrays = random_arrays(program, params, seed=0)
    trace: list = []
    code.run(arrays, dict(params), trace)

    eb = config.element_bytes
    for name, point in trace:
        stmt = stmts[name]
        values = dict(zip(stmt.space.dims, point))
        values.update(params)
        for acc in list(stmt.reads) + list(stmt.writes):
            if acc.guard is not None and not acc.guard.contains(values):
                continue
            idx = acc.map.apply(values)
            addr = base[acc.array]
            for k, stride in zip(idx, strides[acc.array]):
                addr += k * stride
            sim.access(addr * eb)
    return sim
