"""Post-ISS dependences inherit emptiness: a piece keeps its origin's
accesses and ``sched`` and a subset of its domain, so a candidate between
pieces is a subset of its origins' candidate and is skipped when that one was
empty.  Inherited must equal from-scratch — same dependences, same order,
same polyhedra — on every registered workload that index-set splits."""

import itertools

import pytest

from repro.core.iss import index_set_split
from repro.deps import DepStats, compute_dependences
from repro.deps.analysis import (
    _access_pairs,
    _dependence_polyhedron,
    _happens_before_cases,
    product_space,
)
from repro.frontend.ir import Statement
from repro.frontend.serialize import program_from_dict, program_to_dict
from repro.polyhedra.cache import global_cache
from repro.workloads import all_workloads, get_workload
from tests.deps.test_dep_cache import _signature

#: eleven; lbm-ldc-d3q27 (39 680 candidates from scratch, 4 928 inherited) is
#: ~12 s of the file's ~20
ISS_WORKLOADS = [
    w.name for w in all_workloads() if w.pipeline_options("plutoplus").iss
]


def _split(name):
    # every caller counts or compares analysis work: nothing may come from
    # the relations memo of an earlier test
    global_cache().clear()
    program = get_workload(name).program()
    stats = DepStats()
    work, used = index_set_split(program, compute_dependences(program, stats))
    return work, used, stats


@pytest.mark.parametrize("name", ISS_WORKLOADS)
def test_inherited_equals_from_scratch(name):
    work, used, _ = _split(name)
    if not used:  # nothing was cut: nothing rides along
        assert work.live_candidates is None
        return
    inherited_stats, scratch_stats = DepStats(), DepStats()
    inherited = compute_dependences(work, inherited_stats)
    work.live_candidates = None
    global_cache().clear()
    scratch = compute_dependences(work, scratch_stats)
    assert _signature(inherited) == _signature(scratch)
    assert [d.candidate for d in inherited] == [d.candidate for d in scratch]
    assert inherited_stats.deps_found == scratch_stats.deps_found
    assert inherited_stats.pairs_tested < scratch_stats.pairs_tested


def test_counts_on_the_heat_kernels():
    for name, before, after in (("heat-1dp", 22, 20), ("heat-2dp", 57, 144)):
        work, _, stats = _split(name)
        assert stats.pairs_tested == before
        post = DepStats()
        compute_dependences(work, post)
        assert post.pairs_tested == after  # 88 / 912 from scratch


def test_every_skipped_candidate_is_empty_by_the_specification():
    work, _, _ = _split("heat-1dp")
    live, skipped = work.live_candidates, 0
    for src, tgt in itertools.product(work.statements, repeat=2):
        space, s_ren, t_ren = product_space(src, tgt)
        cases = list(_happens_before_cases(src, tgt, space, s_ren, t_ren))
        for n_pair, (_, acc_s, acc_t) in enumerate(_access_pairs(src, tgt)):
            for n_case, case in enumerate(cases):
                if (src.origin, tgt.origin, n_pair, n_case) in live:
                    continue
                skipped += 1
                assert _dependence_polyhedron(
                    work, src, tgt, acc_s, acc_t, case, space, s_ren, t_ren
                ).is_empty()
    assert skipped == 68


def test_a_statement_without_an_origin_is_always_tested():
    work, _, _ = _split("heat-1dp")
    donor = work.statements[0]
    work.add_statement(Statement(
        name="S_late", domain=donor.domain.copy(), reads=list(donor.reads),
        writes=list(donor.writes), body=donor.body, text=donor.text,
        sched=[1, *donor.sched[1:]],
    ))
    inherited = compute_dependences(work)
    work.live_candidates = None
    global_cache().clear()
    assert _signature(inherited) == _signature(compute_dependences(work))
    assert any(d.target.name == "S_late" for d in inherited)


def test_the_bookkeeping_is_neither_compared_nor_serialized():
    work, _, _ = _split("heat-1dp")
    data = program_to_dict(work)
    assert "origin" not in str(data) and "live_candidates" not in str(data)
    back = program_from_dict(data)
    assert back == work
    assert back.live_candidates is None
    assert [s.origin for s in back.statements] == [None, None]
    assert [s.origin for s in work.statements] == ["S0", "S0"]
