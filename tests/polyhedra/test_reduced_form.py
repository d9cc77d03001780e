"""The equality-reduced form in front of ``min_of`` and emptiness.

``BasicSet.reduced()`` substitutes the equalities out of the inequalities;
``min_of`` answers from it when the objective is constant on the set *and*
the emptiness memo already says non-empty, ``is_empty`` runs a per-slope
clash on it.  Both are shortcuts: every answer here is compared with the
solver's (``cache_disabled()``) or with a brute-forced box.
"""

import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.polyhedra import AffExpr, BasicSet, Constraint, Space
from repro.polyhedra.cache import MISS, cache_disabled, global_cache
from repro.polyhedra.fastcheck import fast_reject, reduced_reject

SP = Space(("a", "b", "c", "d"))
BOX = 3
_coeff = st.integers(-2, 2)
_vector = st.lists(_coeff, min_size=4, max_size=4)


def _row(vector, const, equality=False):
    return Constraint(AffExpr(SP, tuple(vector) + (const,)), equality)


@st.composite
def small_sets(draw):
    """A box with 0-3 equalities (often the uniform-dependence shape ``c = a
    + k``) and 0-3 extra inequalities: empty, integer-empty and non-empty
    sets all occur."""
    s = BasicSet(SP)
    for i in range(4):
        unit = [int(i == j) for j in range(4)]
        s.add(_row(unit, BOX))
        s.add(_row([-u for u in unit], BOX))
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            i, j = draw(st.permutations(range(4)))[:2]
            vector = [int(k == i) - int(k == j) for k in range(4)]
        else:
            vector = draw(_vector)
        s.add(_row(vector, draw(st.integers(-3, 3)), equality=True))
    for _ in range(draw(st.integers(0, 3))):
        s.add(_row(draw(_vector), draw(st.integers(-4, 4))))
    return s


def _points(s):
    return [
        p for p in itertools.product(range(-BOX, BOX + 1), repeat=4)
        if s.contains(dict(zip(SP.dims, p)))
    ]


class TestMinOfRule:
    @given(small_sets(), _vector, st.integers(-3, 3), _coeff, st.sampled_from("nse"))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_rule_agrees_with_the_solver_and_needs_known_nonemptiness(
        self, s, vector, const, tie, warm
    ):
        equalities = [c for c in s.constraints if c.equality]
        if tie and equalities:  # an objective the first equality pins
            vector = [tie * v for v in equalities[0].coeffs[:-1]]
        expr = AffExpr(SP, tuple(vector) + (const,))
        cache = global_cache()
        cache.clear()
        if warm != "n":  # as dependence analysis or a direct query leaves it
            s.is_empty()
        known = cache._tables["empty"].get(s.content_key(), MISS)
        before = cache.stats.snapshot()
        got = s.min_of(expr)
        fired = cache.stats.delta_since(before).min_by_rule
        with cache_disabled():
            assert got == s.copy().min_of(expr)
        points = _points(s)
        assert got == (min(expr.evaluate(dict(zip(SP.dims, p))) for p in points)
                       if points else None)
        if fired:
            assert known is False and s.constant_value(expr) == got
        elif known is False:
            assert s.constant_value(expr) is None
        # answered either way, it is a min-memo hit the second time
        before = cache.stats.snapshot()
        assert s.min_of(expr) == got
        assert cache.stats.delta_since(before).min_hits == 1

    def test_uniform_dependence_distance_is_read_off_the_equalities(self):
        s = BasicSet.from_bounds(SP, {"a": (0, 9), "b": (0, 9)})
        s.add(_row([-1, 0, 1, 0], -1, equality=True))   # c == a + 1
        s.add(_row([0, -1, 0, 1], 2, equality=True))    # d == b - 2
        phi = AffExpr(SP, (-2, -1, 2, 1, 0))             # 2(c - a) + (d - b)
        assert s.constant_value(phi) == 0
        assert s.constant_value(AffExpr(SP, (1, 0, 0, 0, 0))) is None
        global_cache().clear()
        stats = global_cache().stats
        before = stats.snapshot()
        assert s.copy().min_of(phi) == 0                 # emptiness unknown: solver
        assert stats.delta_since(before).min_by_rule == 0
        assert not s.is_empty()
        other = AffExpr(SP, (-1, 0, 1, 0, 5))            # (c - a) + 5
        assert s.min_of(other) == 6
        assert stats.delta_since(before).min_by_rule == 1

    def test_reduced_form_follows_the_constraint_list(self):
        s = BasicSet.from_bounds(SP, {"a": (0, 9)})
        expr = AffExpr(SP, (-1, 0, 1, 0, 0))
        assert s.constant_value(expr) is None
        s.add(_row([-1, 0, 1, 0], -4, equality=True))    # c == a + 4
        assert s.constant_value(expr) == 4


class TestReducedReject:
    @given(small_sets())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_never_rejects_a_set_with_an_integer_point(self, s):
        empty = not _points(s)
        if reduced_reject(s):
            assert empty
        global_cache().clear()
        assert s.is_empty() == empty

    @given(
        st.lists(st.tuples(_vector, st.integers(-3, 3)), max_size=2),
        _vector, st.integers(-4, 4), st.integers(1, 3),
        st.lists(st.integers(-2, 2), min_size=2, max_size=2),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_rejects_every_same_slope_clash_behind_the_equalities(
        self, equalities, slope, c1, gap, mix
    ):
        # r2 = -r1 - gap + (a combination of the equalities): on the set the
        # two inequalities sum to -gap < 0, whatever slopes they show
        assume(any(slope))
        s = BasicSet(SP)
        opposite = [-v for v in slope] + [-c1 - gap]
        for (vector, const), k in zip(equalities, mix):
            s.add(_row(vector, const, equality=True))
            opposite = [o + k * e for o, e in zip(opposite, vector + [const])]
        s.add(_row(slope, c1))
        s.add(_row(opposite[:-1], opposite[-1]))
        assert reduced_reject(s)
        assert not _points(s)

    def test_sees_what_the_cheap_pass_cannot(self):
        # a + b >= 5 and c + b <= 3 clash once c == a is substituted
        s = BasicSet(SP)
        s.add(_row([-1, 0, 1, 0], 0, equality=True))
        s.add(_row([1, 1, 0, 0], -5))
        s.add(_row([0, -1, -1, 0], 3))
        assert not fast_reject(s) and reduced_reject(s)
        global_cache().clear()
        stats = global_cache().stats
        before = stats.snapshot()
        assert s.is_empty()
        delta = stats.delta_since(before)
        assert (delta.fast_rejects, delta.empty_lookups, delta.empty_hits) == (1, 1, 0)
        assert s.copy().is_empty() and stats.delta_since(before).empty_hits == 1
        with cache_disabled():  # the seed path: LP, nothing skipped
            assert s.copy().is_empty()
        assert stats.delta_since(before).fast_rejects == 1
