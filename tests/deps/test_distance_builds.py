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
``_carries`` adding a third build for the greatest distance.  Now both make
9 / 36 / 37.  Like the solver-entry counts, these repeat exactly on any
machine.
"""

from collections import Counter

import pytest

from repro.core import (
    PlutoScheduler,
    SchedulerOptions,
    index_set_split,
    mark_parallelism,
)
from repro.deps import DependenceGraph, compute_dependences
from repro.deps.analysis import Dependence
from repro.workloads import get_workload

KERNELS = ("gemm", "heat-2dp", "seidel-2d")


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

    builds.clear()
    mark_parallelism(sched, ddg)
    assert builds and set(builds.values()) == {1}, "mark_parallelism"
    # the scheduler and mark_parallelism walk the same rows over the same
    # dependences, so they examine the same (dependence, row) pairs
    assert sum(builds.values()) == scheduled
