"""How often a walk over schedule rows builds a dependence distance: counted.

``Dependence.distance_expr`` rebases both statements' row expressions into
the dependence's product space and subtracts them.  A walk (the scheduler's
band loop, ``mark_parallelism``) needs the distance of each unsatisfied
dependence on each loop row once: ``Ordering.distances`` builds it, and
``Ordering.low`` / ``advance`` and ``properties._carries`` take it.  Until
1.27.0 each of them built its own.  On the exact schedules of gemm, heat-2dp
(after index-set splitting) and seidel-2d, the scheduler made 12 / 72 / 55
builds for 9 / 36 / 37 (dependence, row) pairs, ``low`` and ``advance``
building the same distance twice, and ``mark_parallelism`` 27 / 108 / 102,
``_carries`` adding a third build for the greatest distance.  Now the
scheduler makes 9 / 36 / 37.

``mark_parallelism`` also decides which bands run as a tile wavefront, and
that question needs the band's second-row distance of every dependence not
ordered before the band, including those its first row satisfies: it builds
them once and reuses them when the walk reaches the row.  Until 1.39.0
``tile_schedule`` recomputed the dependences and walked a second
``Ordering`` for it: ``mark_parallelism`` + ``tile_schedule`` made 108 / 91
/ 67 / 44 / 9 builds on heat-2dp / seidel-2d / jacobi-2d-imper / lu / gemm,
now 72 / 56 / 41 / 26 / 9, still one per (dependence, row).  Like the
solver-entry counts, these repeat exactly on any machine.
"""

from collections import Counter

import pytest

from repro.core import (
    PlutoScheduler,
    SchedulerOptions,
    index_set_split,
    mark_parallelism,
    tile_schedule,
)
from repro.deps import DependenceGraph, compute_dependences
from repro.deps.analysis import Dependence
from repro.workloads import get_workload

#: kernel -> distance builds of ``mark_parallelism`` + ``tile_schedule`` on
#: its exact schedule
BUILDS = {
    "gemm": 9,
    "heat-2dp": 72,
    "seidel-2d": 56,
    "jacobi-2d-imper": 41,
    "lu": 26,
}
KERNELS = tuple(BUILDS)


def _ddg(name):
    workload = get_workload(name)
    program = workload.program()
    deps = compute_dependences(program)
    if workload.iss:
        program, _ = index_set_split(program, deps)
        deps = compute_dependences(program)
    return program, DependenceGraph(program, deps)


def _count_builds(monkeypatch) -> Counter:
    """``(dependence, source row expression, target row expression)`` ->
    builds; one key per dependence and loop row."""
    builds: Counter = Counter()
    real = Dependence.distance_expr

    def counting(self, phi_src, phi_tgt):
        builds[id(self), phi_src, phi_tgt] += 1
        return real(self, phi_src, phi_tgt)

    monkeypatch.setattr(Dependence, "distance_expr", counting)
    return builds


@pytest.mark.parametrize("name", KERNELS)
def test_one_distance_per_dependence_and_row(name, monkeypatch):
    program, ddg = _ddg(name)
    builds = _count_builds(monkeypatch)
    sched = PlutoScheduler(program, ddg, SchedulerOptions()).schedule()
    assert builds and set(builds.values()) == {1}, "scheduler"
    scheduled = sum(builds.values())

    scheduled = set(builds)

    builds.clear()
    mark_parallelism(sched, ddg)
    tile_schedule(sched)
    assert builds and set(builds.values()) == {1}, "mark_parallelism"
    # the walk examines every (dependence, row) pair the scheduler did; the
    # wavefront question adds second-row distances, and tiling builds none
    assert scheduled <= set(builds)
    assert sum(builds.values()) == BUILDS[name]
