"""The PolyCache ``relations`` table: one dependence analysis per program
content per process.

A hit must return what a fresh analysis returns (same relations, same order,
same rows, same solve-key digests) as new objects bound to the caller's
statements; any edit to the program must miss; and the table follows the
other six tables' rules for ``clear()``, ``cache_disabled()`` and the LRU cap.
"""

import pytest

from repro.core.iss import index_set_split
from repro.core.reductions import detect_reductions
from repro.core.scheduler import PlutoScheduler, SchedulerOptions
from repro.core.skeleton import dependence_digest
from repro.deps import DependenceGraph, DepStats, compute_dependences
from repro.deps.rar import compute_rar_dependences
from repro.pipeline import optimize
from repro.polyhedra import BasicSet, ineq
from repro.polyhedra.cache import MISS, PolyCache, cache_disabled, global_cache
from repro.polyhedra.maps import AffineMap
from repro.workloads import all_workloads, get_workload


@pytest.fixture(autouse=True)
def fresh_cache():
    global_cache().clear()
    global_cache().reset_stats()
    yield
    global_cache().clear()
    global_cache().reset_stats()


def _signature(deps):
    return [
        (
            d.kind, d.array, d.source.name, d.target.name, d.candidate,
            [(c.coeffs, c.equality) for c in d.polyhedron.constraints],
            dependence_digest(d),
        )
        for d in deps
    ]


def _relations_hits():
    return global_cache().stats.relations_hits


#: RAR relations checked on the index-set-split program too; elsewhere the
#: read×read candidates of 4–8 pieces cost 3 s (heat-2dp) to 30 s (heat-3dp)
#: from scratch on a 2-vCPU box
RAR_AFTER_ISS = {"heat-1dp", "fig3-symmetric-deps", "fig4-periodic-stencil"}
#: RAR from scratch before the split, same box: lbm-ldc-d3q27 19 s; the three
#: d2q9 variants 1.5–1.9 s each, with the domains, accesses and schedule of
#: lbm-ldc-d2q9, which is checked
RAR_SKIPPED = {"lbm-ldc-d3q27", "lbm-ldc-d2q9-mrt", "lbm-fpc-d2q9", "lbm-poi-d2q9"}


def _hit_and_fresh(program, compute):
    first = compute(program)
    _signature(first)  # the digests land on the entry
    hits = _relations_hits()
    hit = compute(program)
    assert _relations_hits() == hits + 1
    with cache_disabled():
        fresh = compute(program)
    return _signature(hit), _signature(fresh)


@pytest.mark.parametrize("name", [w.name for w in all_workloads()])
def test_a_hit_is_a_fresh_analysis(name):
    workload = get_workload(name)
    program = workload.program()
    work, used = program, False
    if workload.pipeline_options("plutoplus").iss:
        work, used = index_set_split(program, compute_dependences(program))
    cells = [(program, compute_dependences)]
    if name not in RAR_SKIPPED:
        cells.append((program, compute_rar_dependences))
    if used:
        cells.append((work, compute_dependences))
        if name in RAR_AFTER_ISS:
            cells.append((work, compute_rar_dependences))
    for stage, compute in cells:
        hit, fresh = _hit_and_fresh(stage, compute)
        assert hit == fresh, (stage.name, used, compute.__name__)


def _gemm():
    return get_workload("gemm").program()


def _heat():
    return get_workload("heat-1dp").program()


def _bump_param_min(program):
    program.param_min["N"] += 1


def _shift_an_access(program):
    read = program.statements[0].reads[2]  # A[t][i]
    rows = list(read.map.exprs)
    read.map = AffineMap(read.map.domain, [rows[0], rows[1] + 1])


def _tighten_a_guard(program):
    read = program.statements[0].reads[0]  # A[t][i-1] if i >= 1
    space = read.guard.space
    read.guard = BasicSet(space, [ineq(space, {"i": 1}, -2)])


def _move_a_statement(program):
    init = program.statements[0]  # C[i][j] *= beta, now after the k loop
    init.sched = [*init.sched[:-1], 2]


def _swap_two_statements(program):
    program.statements.reverse()


@pytest.mark.parametrize("build, edit", [
    (_heat, _bump_param_min),
    (_heat, _shift_an_access),
    (_heat, _tighten_a_guard),
    (_gemm, _move_a_statement),
    (_gemm, _swap_two_statements),
], ids=lambda f: f.__name__)
def test_every_edit_misses(build, edit):
    program = build()
    before = _signature(compute_dependences(program))
    edit(program)
    hits = _relations_hits()
    after = compute_dependences(program)
    assert _relations_hits() == hits
    with cache_disabled():
        assert _signature(after) == _signature(compute_dependences(program))
    if edit is not _bump_param_min:
        assert _signature(after) != before


def test_a_hit_tests_nothing_and_counts_one_cache_hit():
    program = _heat()
    cold, warm = DepStats(), DepStats()
    deps = compute_dependences(program, cold)
    again = compute_dependences(program, warm)
    assert cold.pairs_tested > 0 and cold.cache_misses > 0
    assert (warm.pairs_tested, warm.fast_rejects) == (0, 0)
    assert (warm.cache_hits, warm.cache_misses) == (1, 0)
    assert warm.deps_found == cold.deps_found == len(again) == len(deps)


def test_obeys_disable_clear_and_cap():
    program = _gemm()
    stats = global_cache().stats
    with cache_disabled():
        compute_dependences(program)
        compute_dependences(program)
    assert stats.relations_lookups == 0 and len(global_cache()) == 0

    compute_dependences(program)
    compute_dependences(program)
    assert (stats.relations_lookups, stats.relations_hits) == (2, 1)
    global_cache().clear()
    assert len(global_cache()) == 0
    compute_dependences(program)
    assert stats.relations_hits == 1

    cache = PolyCache(max_entries=2)
    for k in "abc":
        cache.put_relations((k,), ())
    assert len(cache) == 2 and cache.stats.evictions == 1
    assert cache.get_relations(("a",)) is MISS
    assert cache.get_relations(("c",)) == ()


class TestIsolation:
    def test_a_hit_builds_new_unscheduled_dependences(self):
        program = _gemm()
        first = compute_dependences(program)
        ddg = DependenceGraph(program, first)
        scheduler = PlutoScheduler(program, ddg, SchedulerOptions())
        scheduler.schedule()
        assert not scheduler.order.unsatisfied()
        hit = compute_dependences(program)
        assert not {id(d) for d in hit} & {id(d) for d in first}
        assert [vars(d) for d in hit] == [vars(d) for d in first]
        assert all(d.source in program.statements for d in hit)
        with cache_disabled():
            assert _signature(hit) == _signature(compute_dependences(program))

    def test_relaxing_one_run_keeps_the_next_runs_accumulator(self):
        program = get_workload("dot").program()
        (reduction,) = detect_reductions(program)
        options = get_workload("dot").pipeline_options
        relaxed = optimize(program, options(parallel_reductions="omp"))
        plain = optimize(program, options(parallel_reductions="off"))
        assert plain.scheduler_stats.reductions_relaxed == 0
        assert plain.dep_stats.pairs_tested == 0  # a hit, not a re-analysis
        accumulator = [
            d for d in compute_dependences(plain.program)
            if d.source is d.target and d.array == reduction.array
        ]
        assert len(accumulator) == relaxed.scheduler_stats.reductions_relaxed > 0
        with cache_disabled():
            scratch = optimize(program, options(parallel_reductions="off"))
        assert plain.tiled.to_dict() == scratch.tiled.to_dict()
        assert not plain.tiled.reduction_levels()
