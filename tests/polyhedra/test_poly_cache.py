"""Tests for the content-addressed polyhedral memo cache and fast-reject."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.polyhedra import AffExpr, BasicSet, Constraint, Space, eq, ineq
from repro.polyhedra.cache import (
    DEFAULT_MAX_ENTRIES,
    MISS,
    PolyCache,
    PolyCacheStats,
    active_cache,
    cache_disabled,
    cache_enabled,
    global_cache,
)
from repro.polyhedra.fastcheck import fast_reject


@pytest.fixture
def sp():
    return Space(("x", "y"), ("N",))


@pytest.fixture(autouse=True)
def fresh_cache():
    global_cache().clear()
    global_cache().reset_stats()
    yield
    global_cache().clear()
    global_cache().reset_stats()


class TestFastReject:
    def test_slope_clash_eq_vs_ineq(self, sp):
        # The dominant empty-dependence shape: conflict equality pins the
        # distance to 0 while happens-before demands >= 1.
        s = BasicSet(sp)
        s.add(eq(sp, {"x": 1, "y": -1}))        # x - y == 0
        s.add(ineq(sp, {"x": 1, "y": -1}, -1))  # x - y - 1 >= 0
        assert fast_reject(s)

    def test_interval_clash_single_var(self, sp):
        s = BasicSet(sp)
        s.add(ineq(sp, {"x": 1}, -5))   # x >= 5
        s.add(ineq(sp, {"x": -1}, 3))   # x <= 3
        assert fast_reject(s)

    def test_gcd_infeasible_equality(self, sp):
        s = BasicSet(sp)
        s.add(eq(sp, {"x": 2}, -1))  # 2x == 1
        assert fast_reject(s)

    def test_two_equalities_same_slope(self, sp):
        s = BasicSet(sp)
        s.add(eq(sp, {"x": 1, "y": 1}, -1))
        s.add(eq(sp, {"x": 1, "y": 1}, -2))
        assert fast_reject(s)

    def test_feasible_box_not_rejected(self, sp):
        s = BasicSet.from_bounds(sp, {"x": (0, 5), "y": (0, 5)})
        assert not fast_reject(s)

    @given(
        st.lists(
            st.tuples(
                st.integers(-2, 2), st.integers(-2, 2), st.integers(-4, 4),
                st.booleans(),
            ),
            min_size=0,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_reject_is_sound(self, rows):
        # fast_reject == True must imply exact emptiness, on any system.
        sp2 = Space(("x", "y"))
        s = BasicSet(sp2)
        for a, b, c, is_eq in rows:
            s.add(eq(sp2, {"x": a, "y": b}, c) if is_eq
                  else ineq(sp2, {"x": a, "y": b}, c))
        if fast_reject(s):
            with cache_disabled():
                assert s.is_empty()


class TestPolyCache:
    def test_emptiness_memoized(self, sp):
        s = BasicSet.from_bounds(sp, {"x": (0, 5)})
        assert not s.is_empty()
        assert not s.is_empty()
        stats = global_cache().stats
        assert stats.empty_lookups == 2
        assert stats.empty_hits == 1

    def test_identical_content_shares_entry(self, sp):
        a = BasicSet.from_bounds(sp, {"x": (0, 5)})
        b = BasicSet(sp)
        # same constraints, different insertion order
        b.add(ineq(sp, {"x": -1}, 5))
        b.add(ineq(sp, {"x": 1}, 0))
        assert a.content_key() == b.content_key()
        a.is_empty()
        b.is_empty()
        assert global_cache().stats.empty_hits == 1

    def test_mutation_changes_key(self, sp):
        s = BasicSet.from_bounds(sp, {"x": (0, 5)})
        key = s.content_key()
        assert not s.is_empty()
        s.add(ineq(sp, {"x": 1}, -9))  # x >= 9: now empty
        assert s.content_key() != key
        assert s.is_empty()

    def test_min_of_memoized_and_identical(self, sp):
        s = BasicSet.from_bounds(sp, {"x": (2, 7)})
        expr = AffExpr.var(sp, "x")
        first = s.min_of(expr)
        second = s.min_of(expr)
        assert first == second == 2
        assert global_cache().stats.min_hits == 1

    def test_min_of_unbounded_cached_raises_twice(self, sp):
        s = BasicSet(sp)
        expr = AffExpr.var(sp, "x")
        with pytest.raises(ValueError):
            s.min_of(expr)
        with pytest.raises(ValueError):
            s.min_of(expr)
        assert global_cache().stats.min_hits == 1

    def test_project_out_memoized_returns_independent_copy(self, sp):
        s = BasicSet.from_bounds(sp, {"x": (0, 5), "y": (1, 3)})
        p1 = s.project_out(["y"])
        p2 = s.project_out(["y"])
        assert global_cache().stats.project_hits == 1
        assert set(p1.constraints) == set(p2.constraints)
        # mutating a cached result must not poison later hits
        p2.add(ineq(p2.space, {"x": 1}, -4))
        p3 = s.project_out(["y"])
        assert set(p3.constraints) == set(p1.constraints)

        # the memo holds the whole chain: every level of a hit is a copy
        first = s.project_chain(["y", "x"])
        second = s.project_chain(["y", "x"])
        assert global_cache().stats.project_hits == 3
        assert first == second and first[0] == p1
        for level in second:
            level.add(Constraint(AffExpr.const(level.space, -1)))
        assert s.project_chain(["y", "x"]) == first
        # another order is another question
        s.project_chain(["x", "y"])
        assert global_cache().stats.project_hits == 4

    def test_lexmin_memoized(self, sp):
        s = BasicSet.from_bounds(sp, {"x": (3, 7), "y": (1, 2)})
        first = s.lexmin_point()
        second = s.lexmin_point()
        assert first == second == {"x": 3, "y": 1}
        assert global_cache().stats.lexmin_hits == 1
        second["x"] = 99  # caller mutation must not poison the cache
        assert s.lexmin_point() == {"x": 3, "y": 1}

    def test_overflow_evicts_least_recently_used(self, sp):
        cache = PolyCache(max_entries=2)
        cache.put_empty(("a",), True)
        cache.put_empty(("b",), False)
        cache.get_empty(("a",))         # refresh a: b is now the LRU entry
        cache.put_empty(("c",), True)   # evicts b only
        assert len(cache) == 2
        assert cache.get_empty(("a",)) is True
        assert cache.get_empty(("b",)) is MISS
        assert cache.get_empty(("c",)) is True
        assert cache.stats.evictions == 1

    def test_env_var_overrides_capacity(self, sp, monkeypatch):
        monkeypatch.setenv("REPRO_POLY_CACHE_CAP", "3")
        cache = PolyCache()
        assert cache.max_entries == 3
        for k in "abcd":
            cache.put_min((k,), 0)
        assert len(cache) == 3
        assert cache.stats.evictions == 1
        monkeypatch.delenv("REPRO_POLY_CACHE_CAP")
        assert PolyCache().max_entries == DEFAULT_MAX_ENTRIES

    def test_reinsert_same_key_does_not_evict(self, sp):
        cache = PolyCache(max_entries=2)
        cache.put_empty(("a",), True)
        cache.put_empty(("b",), False)
        cache.put_empty(("a",), True)  # refresh, not growth
        assert len(cache) == 2
        assert cache.stats.evictions == 0

    def test_stats_consistency(self, sp):
        s = BasicSet.from_bounds(sp, {"x": (0, 5)})
        s.is_empty()
        s.is_empty()
        s.min_of(AffExpr.var(sp, "x"))
        stats = global_cache().stats
        assert stats.misses == stats.lookups - stats.hits
        assert stats.lookups == stats.empty_lookups + stats.min_lookups \
            + stats.lexmin_lookups + stats.project_lookups


    def test_totals_name_their_tables(self):
        """``hits`` / ``lookups`` sum the five tables of ``TABLES``, not every
        field whose name happens to end that way: counters are in neither."""
        from dataclasses import fields, replace

        from repro.polyhedra.cache import TABLES

        stats = PolyCacheStats(
            **{f.name: 10 * (i + 1) for i, f in enumerate(fields(PolyCacheStats))}
        )
        assert stats.hits + stats.misses == stats.lookups
        assert stats.lookups == sum(getattr(stats, f"{t}_lookups") for t in TABLES)
        assert stats.hits == sum(getattr(stats, f"{t}_hits") for t in TABLES)
        assert set(PolyCache()._tables) == set(TABLES)
        counters = {f.name for f in fields(PolyCacheStats)} - {
            f"{t}_{kind}" for t in TABLES for kind in ("lookups", "hits")
        }
        assert {"min_by_rule", "fast_rejects", "prune_lp_solves"} <= counters
        bumped = replace(stats, **{name: 10**6 for name in counters})
        assert (bumped.hits, bumped.lookups, bumped.misses) == (
            stats.hits, stats.lookups, stats.misses
        )


class TestPruneTable:
    """The fifth table: ``prune_redundant_rows`` on the ordered row tuple."""

    #: a box whose x <= 5 face is alone on its side (rule 2), a
    #: same-slope-dominated row (rule 1), and two diagonals only an LP judges:
    #: five undecided rows, one chunk, two HiGHS entries (flag, then confirm)
    ROWS = [
        ((1, 0, 0), False), ((-1, 0, 5), False),
        ((0, 1, 0), False), ((0, -1, 5), False),
        ((1, 0, 3), False), ((1, 1, 0), False), ((1, -1, 6), False),
    ]

    def test_counts_and_memo(self):
        from repro.polyhedra.fourier_motzkin import prune_redundant_rows

        stats = global_cache().stats
        out = prune_redundant_rows(self.ROWS)
        assert out == self.ROWS[:4]
        cold = stats.snapshot()
        assert (cold.prune_lookups, cold.prune_hits) == (1, 0)
        assert cold.prune_rule_rows == 2 and cold.prune_lp_solves == 2
        hit = prune_redundant_rows(self.ROWS)
        assert hit == out and hit is not out
        warm = stats.delta_since(cold)
        assert warm.as_dict() == {
            **PolyCacheStats().as_dict(), "prune_lookups": 1, "prune_hits": 1
        }
        assert (stats.lookups, stats.hits, stats.misses) == (2, 1, 1)
        assert len(global_cache()) == 1
        # row order is part of the key: a permutation is another question
        prune_redundant_rows(self.ROWS[::-1])
        assert stats.prune_hits == 1 and len(global_cache()) == 2

    def test_obeys_disable_cap_and_clear(self):
        from repro.polyhedra.fourier_motzkin import prune_redundant_rows

        stats = global_cache().stats
        with cache_disabled():
            assert prune_redundant_rows(self.ROWS) == self.ROWS[:4]
            assert prune_redundant_rows(self.ROWS) == self.ROWS[:4]
        # no memo traffic, but the rule and LP work is still counted
        assert stats.prune_lookups == 0 and len(global_cache()) == 0
        assert stats.prune_rule_rows == 4 and stats.prune_lp_solves == 4

        prune_redundant_rows(self.ROWS)
        assert len(global_cache()) == 1
        global_cache().clear()
        assert len(global_cache()) == 0
        prune_redundant_rows(self.ROWS)
        assert stats.prune_hits == 0

        cache = PolyCache(max_entries=2)
        for k in "abc":
            cache.put_prune((k,), ())
        assert len(cache) == 2 and cache.stats.evictions == 1
        assert cache.get_prune(("a",)) is MISS
        assert cache.get_prune(("c",)) == ()


class TestEscapeHatch:
    def test_context_manager_disables(self, sp):
        assert cache_enabled()
        with cache_disabled():
            assert not cache_enabled()
            assert active_cache() is None
            s = BasicSet.from_bounds(sp, {"x": (0, 5)})
            assert not s.is_empty()
        assert cache_enabled()
        assert global_cache().stats.lookups == 0

    def test_only_cache_disabled_disables(self, monkeypatch):
        # the retired environment switch is not read; nesting restores
        monkeypatch.setenv("REPRO_DEPS_NO_CACHE", "1")
        assert cache_enabled()
        with cache_disabled():
            with cache_disabled():
                assert not cache_enabled()
            assert not cache_enabled()
        assert cache_enabled()

    def test_set_is_empty_matches_uncached(self, sp):
        cases = []
        s1 = BasicSet(sp)
        s1.add(eq(sp, {"x": 1, "y": -1}))
        s1.add(ineq(sp, {"x": 1, "y": -1}, -1))
        cases.append(s1)
        cases.append(BasicSet.from_bounds(sp, {"x": (0, 5)}))
        s3 = BasicSet(sp)
        s3.add(eq(sp, {"x": 2}, -1))
        cases.append(s3)
        for s in cases:
            fast = s.is_empty()
            with cache_disabled():
                assert s.is_empty() == fast
