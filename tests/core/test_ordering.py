"""``repro.deps.ordering.Ordering``: one walk's record of which dependence
pairs the schedule rows so far order — and the analysis output it leaves
alone."""

import pytest

from repro.core import (
    PlutoScheduler,
    SchedulerOptions,
    SchedulerStats,
    find_diamond_schedule,
    index_set_split,
    mark_parallelism,
)
from repro.core.quick import attempt_quick_schedule
from repro.core.transform import ScheduleRow
from repro.deps import DependenceGraph, compute_dependences
from repro.deps.ordering import UNBOUNDED, Ordering, distance
from repro.frontend import parse_program
from repro.polyhedra import AffExpr
from repro.workloads import get_workload


def _deps(src):
    p = parse_program(src, "p", params=("N",), param_min=3)
    return p, compute_dependences(p)


def _row(p, **terms):
    """A loop row giving every statement the same iterator coefficients."""
    return ScheduleRow("loop", {
        s.name: AffExpr.from_terms(s.space, terms, 0) for s in p.statements
    })


class TestOrdering:
    def test_a_row_at_distance_one_satisfies(self):
        p, deps = _deps("for (i = 0; i < N; i++) x[0] = x[0] + A[i];")
        order = Ordering(deps)
        assert order.unsatisfied() == deps
        row = _row(p, i=1)
        assert all(order.low(d, distance(d, row)) >= 1 for d in deps)
        order.advance(0, order.distances(row))
        assert order.unsatisfied() == []
        assert set(order.level.values()) == {0}

    def test_a_backwards_row_has_no_least_distance(self):
        p, deps = _deps("for (i = 0; i < N; i++) x[0] = x[0] + A[i];")
        order = Ordering(deps)
        back = _row(p, i=-1)
        assert all(order.low(d, distance(d, back)) is UNBOUNDED for d in deps)

    def test_distance_zero_pairs_stay_for_deeper_levels(self):
        p, deps = _deps(
            "for (i = 0; i < N; i++) for (j = 0; j < N; j++)"
            " A[i+1][j+1] = 2.0 * A[i][j];"
        )
        (dep,) = deps
        order = Ordering(deps)
        skew = _row(p, i=1, j=-1)
        assert order.low(dep, distance(dep, skew)) == 0
        order.advance(0, order.distances(skew))
        assert order.unsatisfied() == [dep]
        assert order.remaining[id(dep)] is not dep.polyhedron
        # every remaining pair sits at 0
        assert order.low(dep, distance(dep, skew)) == 0
        order.advance(1, order.distances(_row(p, j=1)))
        assert order.level == {id(dep): 1}

    def test_dependences_asking_the_same_question_share_one_minimum(self):
        p, deps = _deps(
            "for (i = 0; i < N; i++) { A[i+1] = A[i]; B[i+1] = B[i]; }"
        )
        order = Ordering(deps)
        assert order.advance(0, order.distances(_row(p, i=1))) == len(deps) - len(
            {d.polyhedron.content_key() for d in deps}
        ) > 0
        assert order.unsatisfied() == []

    def test_a_cut_satisfies_what_it_orders_forwards(self):
        p, deps = _deps(
            "for (i = 0; i < N; i++) B[i] = 2.0 * A[i];"
            " for (i = 0; i < N; i++) C[i] = 3.0 * B[i];"
        )
        order = Ordering(deps)
        assert order.cut({"S0": 1, "S1": 0}) == 0
        assert order.cut({"S0": 0, "S1": 1}) == len(deps)
        assert order.unsatisfied() == [] and order.level == {}


def _schedule(program, ddg, scheduler, fuse, diamond):
    """The pipeline's scheduler path: quick attempt, diamond, exact."""
    options = SchedulerOptions(fuse=fuse)
    sched = None
    if scheduler in ("quick", "auto"):
        sched = attempt_quick_schedule(
            program, ddg, options,
            mode=scheduler, diamond=diamond, stats=SchedulerStats(),
        )
    if sched is None and diamond:
        sched = find_diamond_schedule(program, ddg, options)
        assert sched is not None and sched.bands[0].concurrent_start
    if sched is None:
        sched = PlutoScheduler(program, ddg, options).schedule()
    return sched


@pytest.mark.parametrize("name, scheduler, fuse", [
    ("gemm", "exact", "smart"),
    ("seidel-2d", "quick", "smart"),
    ("seidel-2d", "auto", "smart"),
    ("heat-1dp", "exact", "smart"),   # after ISS, diamond
    ("2mm", "exact", "no"),
])
def test_scheduling_leaves_the_analysis_output_untouched(name, scheduler, fuse):
    """Until v1.25.0 the schedulers wrote ``satisfaction_level`` and
    ``satisfied_by_cut`` onto the dependences (cleared by ``ddg.reset()``
    before each run) and Farkas cached its pruned rows on them.  Each walk
    now owns an ``Ordering``; the dependences come out as they went in."""
    workload = get_workload(name)
    program = workload.program()
    deps = compute_dependences(program)
    if workload.iss:
        program, split = index_set_split(program, deps)
        assert split
        deps = compute_dependences(program)
    ddg = DependenceGraph(program, deps)
    before = [(dict(vars(d)), list(d.polyhedron.constraints)) for d in ddg.deps]
    sched = _schedule(program, ddg, scheduler, fuse, workload.diamond)
    mark_parallelism(sched, ddg)
    after = [(vars(d), d.polyhedron.constraints) for d in ddg.deps]
    assert after == before
