"""Fast-path dependence analysis: cached == uncached, and DepStats sanity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deps import DepStats, compute_dependences
from repro.deps.analysis import (
    _access_pairs,
    _dependence_polyhedron,
    _happens_before_cases,
    product_space,
)
from repro.deps.rar import _read_pairs, compute_rar_dependences
from repro.frontend.builder import ProgramBuilder
from repro.polyhedra.cache import cache_disabled, global_cache
from repro.workloads import get_workload


@pytest.fixture(autouse=True)
def fresh_cache():
    global_cache().clear()
    global_cache().reset_stats()
    yield
    global_cache().clear()
    global_cache().reset_stats()


def _off(base: str, delta: int) -> str:
    return f"{base}{delta:+d}" if delta else base


def _random_program(offsets, second_stmt):
    a, b, c, d, e, f = offsets
    builder = ProgramBuilder("rand", params=("N",))
    with builder.loop("i", 2, "N-3"):
        with builder.loop("j", 2, "N-3"):
            builder.stmt(
                f"A[{_off('i', a)}][{_off('j', b)}] = "
                f"A[{_off('i', c)}][{_off('j', d)}] + B[j][i]"
            )
            if second_stmt:
                builder.stmt(f"B[i][j] = A[{_off('i', e)}][{_off('j', f)}]")
    return builder.build()


def _signature(deps):
    return [
        (
            d.kind,
            d.source.name,
            d.target.name,
            d.array,
            frozenset((c.coeffs, c.equality) for c in d.polyhedron.constraints),
        )
        for d in deps
    ]


class TestCachedEqualsUncached:
    @given(
        offsets=st.tuples(*[st.integers(-2, 2)] * 6),
        second_stmt=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_affine_programs(self, offsets, second_stmt):
        program = _random_program(offsets, second_stmt)
        global_cache().clear()
        cached = compute_dependences(program)
        with cache_disabled():
            uncached = compute_dependences(program)
        assert _signature(cached) == _signature(uncached)

    def test_workload_relations_identical(self):
        program = get_workload("fig1-skew").program()
        cached = compute_dependences(program)
        with cache_disabled():
            uncached = compute_dependences(program)
        assert _signature(cached) == _signature(uncached)

    def test_incremental_construction_matches_reference(self):
        # The one enumerator layers shared rows on copies; the standalone
        # builder is the executable spec for each candidate's content —
        # for the real dependences and for the read×read (RAR) pair filter.
        import itertools

        from repro.polyhedra.fastcheck import set_is_empty

        for workload, pairs, compute in (
            ("fig1-skew", _access_pairs, compute_dependences),
            ("gemm", _access_pairs, compute_dependences),
            ("gemm", _read_pairs, compute_rar_dependences),
        ):
            program = get_workload(workload).program()
            reference = []
            for src, tgt in itertools.product(program.statements, repeat=2):
                space, s_ren, t_ren = product_space(src, tgt)
                cases = list(
                    _happens_before_cases(src, tgt, space, s_ren, t_ren)
                )
                for kind, acc_s, acc_t in pairs(src, tgt):
                    for case in cases:
                        poly = _dependence_polyhedron(
                            program, src, tgt, acc_s, acc_t, case,
                            space, s_ren, t_ren,
                        )
                        if set_is_empty(poly):
                            continue
                        reference.append(
                            (
                                kind,
                                src.name,
                                tgt.name,
                                acc_s.array,
                                frozenset(
                                    (c.coeffs, c.equality)
                                    for c in poly.constraints
                                ),
                            )
                        )
            assert reference, f"vacuous: {workload} has no such relation"
            assert _signature(compute(program)) == reference


class TestDepStats:
    def test_counters_consistent(self):
        program = get_workload("fig1-skew").program()
        stats = DepStats()
        compute_dependences(program, stats)
        assert stats.lookups == stats.cache_hits + stats.cache_misses
        assert stats.pairs_tested >= stats.fast_rejects + stats.deps_found
        assert stats.deps_found > 0
        assert stats.analysis_seconds > 0

    def test_merge_accumulates(self):
        program = get_workload("fig1-skew").program()
        a, b = DepStats(), DepStats()
        compute_dependences(program, a)
        compute_dependences(program, b)
        total = DepStats()
        total.merge(a)
        total.merge(b)
        assert total.pairs_tested == a.pairs_tested + b.pairs_tested
        assert total.lookups == a.lookups + b.lookups
        d = total.as_dict()
        assert d["deps_found"] == a.deps_found + b.deps_found

    def test_second_run_hits_cache(self):
        program = get_workload("fig1-skew").program()
        first, second = DepStats(), DepStats()
        compute_dependences(program, first)
        compute_dependences(program, second)
        assert second.cache_hits > 0
        assert second.cache_misses == 0

    def test_uncached_run_counts_nothing(self):
        program = get_workload("fig1-skew").program()
        stats = DepStats()
        with cache_disabled():
            compute_dependences(program, stats)
        assert stats.lookups == 0
        assert stats.fast_rejects == 0
        assert stats.pairs_tested > 0
