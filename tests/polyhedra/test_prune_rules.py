"""Soundness of what replaced the pruning LPs, decided by an exact oracle.

``prune_redundant_rows`` answers most rows with two arithmetic rules and a
content memo instead of an LP.  Every verdict here is checked against the
dense ``Fraction`` simplex in ``tests/ilp/reference_lp.py``, which shares no
code with the rules or with HiGHS:

* a dropped row ``a.x + c >= 0`` must have exact ``min(a.x) >= -c`` over the
  rows that were kept;
* a row rule 2 kept must have an unbounded minimum over the other kept rows
  (or the system is empty and the question is moot);
* the output is idempotent, and a memo hit, a cold call and a call with the
  cache disabled agree.

The rows neither rule decides go to HiGHS in block LPs (flag, confirm,
sequential fallback); ``TestBatchedSweep`` requires the same list in the same
order as the row-by-row sweep kept in ``tests/polyhedra/reference_prune.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.polyhedra import fourier_motzkin
from repro.polyhedra.cache import cache_disabled, global_cache
from repro.polyhedra.fourier_motzkin import _row_rules, prune_redundant_rows
from tests.ilp.simplex import LPStatus
from tests.polyhedra.reference_prune import exact_min as _exact_min, sweep_prune


#: slack of an anchored inequality over the witness point; often zero, so
#: opposed pairs often close into an implicit equality
_SLACK = st.sampled_from([0, 0, 0, 1, 2, 4])


@st.composite
def row_systems(draw):
    """Small integer systems with equalities, duplicates, scaled copies,
    opposed pairs (``a.x >= lo`` beside ``a.x <= hi``: with no slack an
    implicit equality) and sums of two rows — which their parents imply,
    and which across an implicit equality imply a parent back.

    Most are feasible by construction (constants anchored on a witness
    point, inequalities with slack) until an opposed row cuts the witness
    off; one in five draws free constants, so empty systems occur too.
    """
    n = draw(st.integers(1, 6))
    witness = [draw(st.integers(-3, 3)) for _ in range(n)]
    anchored = draw(st.integers(0, 4)) > 0
    rows = []
    for _ in range(draw(st.integers(2, 12))):
        kind = draw(st.sampled_from(
            ["new", "new", "new", "copy", "scaled", "shifted", "opposed", "sum"]
        ))
        if rows and kind != "new":
            coeffs, equality = draw(st.sampled_from(rows))
            if kind == "opposed" and not equality:
                width = draw(st.sampled_from([0, 0, 1, 3]))
                coeffs = tuple(-c for c in coeffs[:-1]) + (width - coeffs[-1],)
            elif kind == "sum" and not equality:
                other, _ = draw(st.sampled_from(rows))
                coeffs = tuple(a + b for a, b in zip(coeffs, other))
            elif kind == "scaled":
                k = draw(st.integers(2, 3))
                coeffs = tuple(k * c for c in coeffs)
            elif kind == "shifted" and not equality:
                coeffs = coeffs[:-1] + (coeffs[-1] + draw(st.integers(0, 3)),)
            rows.append((coeffs, equality))
            continue
        slope = [draw(st.integers(-3, 3)) if draw(st.booleans()) else 0 for _ in range(n)]
        equality = draw(st.integers(0, 5)) == 0
        at = sum(c * w for c, w in zip(slope, witness))
        if anchored:
            const = -at + (0 if equality else draw(_SLACK))
        else:
            const = draw(st.integers(-6, 6))
        rows.append((tuple(slope) + (const,), equality))
    return rows


@st.composite
def sheared_systems(draw):
    """Systems in which rows imply each other in turn: an implicit equality
    ``p.x == 0`` written as two inequalities, and beside some rows ``r`` the
    sheared ``r + k p`` — equivalent to ``r`` given the pair, implied by
    nothing else.  Both get flagged, the confirming LP fails, and only the
    sweep's order says which one goes.
    """
    n = draw(st.integers(2, 4))
    coeff = st.integers(-2, 2)
    p = draw(st.lists(coeff, min_size=n, max_size=n).filter(any)) + [0]
    rows = [(tuple(p), False), (tuple(-c for c in p), False)]
    for _ in range(draw(st.integers(1, 4))):
        r = draw(st.lists(coeff, min_size=n, max_size=n).filter(any))
        r.append(draw(st.integers(0, 3)))
        rows.append((tuple(r), False))
        if draw(st.booleans()):
            k = draw(st.sampled_from([-2, -1, 1, 2]))
            rows.append((tuple(a + k * b for a, b in zip(r, p)), False))
    return draw(st.permutations(rows))


def _implied(rows, row) -> bool:
    """Whether ``row`` holds on every rational point of ``rows``."""
    coeffs, _ = row
    res = _exact_min(rows, coeffs[:-1])
    if res.status == LPStatus.INFEASIBLE:
        return True
    return res.status == LPStatus.OPTIMAL and res.objective >= -coeffs[-1]


class TestAgainstOracle:
    @given(row_systems())
    @settings(max_examples=500, deadline=None)
    def test_every_verdict_is_exact(self, rows):
        global_cache().clear()
        out = prune_redundant_rows(rows)

        # same equalities, inequalities a subsequence of the input's
        assert [r for r in out if r[1]] == [r for r in rows if r[1]]
        ineqs = [r for r in rows if not r[1]]
        kept = [r for r in out if not r[1]]
        it = iter(ineqs)
        assert all(any(r == candidate for candidate in it) for r in kept)

        # dropped rows are implied by what was kept
        for row in ineqs:
            if row not in kept:
                assert _implied(out, row), (rows, row)

        # rows rule 2 kept recede to -infinity over the other kept rows
        eqs = [r for r in rows if r[1]]
        _, sole = _row_rules(eqs, ineqs)
        if len(ineqs) > 1 and len(sole) < len(ineqs):
            for i in sole:
                others = list(out)
                others.remove(ineqs[i])
                res = _exact_min(others, ineqs[i][0][:-1])
                assert res.status in (LPStatus.UNBOUNDED, LPStatus.INFEASIBLE), (
                    rows, ineqs[i]
                )

        # idempotent; memo hit == cold call == uncached call, fresh lists
        assert prune_redundant_rows(out) == out
        before = global_cache().stats.snapshot()
        again = prune_redundant_rows(rows)
        assert again == out and again is not out
        if len(ineqs) > 1:
            delta = global_cache().stats.delta_since(before)
            assert (delta.prune_lookups, delta.prune_hits) == (1, 1)
            assert delta.prune_lp_solves == delta.prune_rule_rows == 0
        with cache_disabled():
            assert prune_redundant_rows(rows) == out


class TestRules:
    def test_constant_and_dominated_rows_need_no_lp(self):
        # x == y makes  x - y + 3 >= 0  a constant; x + 5 is dominated by x
        rows = [
            ((1, -1, 0), True),
            ((1, -1, 3), False),
            ((1, 0, 5), False),
            ((1, 0, 0), False),
            ((-1, 0, 9), False),
        ]
        global_cache().clear()
        before = global_cache().stats.snapshot()
        out = prune_redundant_rows(rows)
        assert out == [rows[0], rows[3], rows[4]]
        delta = global_cache().stats.delta_since(before)
        assert delta.prune_lp_solves == 0 and delta.prune_rule_rows == 4

    def test_of_equal_rows_the_earlier_drops(self):
        # 2y >= 0 and y >= 0 are one constraint once x == y is substituted
        # into  x + y >= 0; the later copy survives, as in a sequential sweep
        eq = ((1, -1, 0), True)
        first, second = ((1, 1, 0), False), ((0, 1, 0), False)
        box = [((-1, 0, 4), False)]
        assert prune_redundant_rows([eq, first, second] + box) == [eq, second] + box
        assert prune_redundant_rows([eq, second, first] + box) == [eq, first] + box

    def test_scaled_constants_compare_as_rationals(self):
        # 2x + 1 >= 0 (x >= -1/2) is tighter than x + 1 >= 0: no flooring
        rows = [((2, 1), False), ((1, 1), False), ((-1, 5), False)]
        assert prune_redundant_rows(rows) == [rows[0], rows[2]]

    def test_visibly_empty_system_is_left_alone(self):
        rows = [((1, 0, 0), True), ((1, 0, -1), True), ((0, 1, 0), False), ((0, 1, 2), False)]
        assert prune_redundant_rows(rows) == rows[:2] + rows[2:]
        live, sole = _row_rules(rows[:2], rows[2:])
        assert live == [0, 1] and sole == {0, 1}

    def test_sole_bounder_rule(self):
        # a triangle: each row is the only one bounding a column from a side
        rows = [((1, 0, 0), False), ((0, 1, 0), False), ((-1, -1, 4), False)]
        assert _row_rules([], rows) == ([0, 1, 2], {0, 1, 2})
        # with a diagonal, only the hypotenuse is still alone on its side
        rows.append(((1, 1, 1), False))
        assert _row_rules([], rows) == ([0, 1, 2, 3], {2})
        global_cache().clear()
        before = global_cache().stats.snapshot()
        assert prune_redundant_rows(rows) == rows[:3]
        delta = global_cache().stats.delta_since(before)
        # three undecided rows in one chunk: one entry flags the diagonal,
        # one confirms it against the triangle
        assert (delta.prune_rule_rows, delta.prune_lp_solves) == (1, 2)


class TestBatchedSweep:
    """Flag + confirm + fallback keeps exactly what the row-by-row sweep keeps."""

    @given(st.one_of(row_systems(), sheared_systems()))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_same_list_same_order_as_the_sweep(self, rows):
        want = sweep_prune(rows)
        with cache_disabled():
            assert prune_redundant_rows(rows) == want, rows

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @given(st.one_of(row_systems(), sheared_systems()))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_any_chunking_is_the_sweep(self, chunk, rows):
        want = sweep_prune(rows)
        old = fourier_motzkin.PRUNE_CHUNK
        fourier_motzkin.PRUNE_CHUNK = chunk
        try:
            with cache_disabled():
                assert prune_redundant_rows(rows) == want, rows
        finally:
            fourier_motzkin.PRUNE_CHUNK = old

    def test_mutually_implying_rows_fall_back_to_the_sweep(self):
        # x == y written as two inequalities: x >= 0 and y >= 0 each follow
        # from the other, so both are flagged, the confirming LP (neither
        # present) fails, and the sweep drops the earlier one only
        opposed = [((1, -1, 0), False), ((-1, 1, 0), False)]
        first, second = ((1, 0, 0), False), ((0, 1, 0), False)
        global_cache().clear()
        before = global_cache().stats.snapshot()
        assert prune_redundant_rows(opposed + [first, second]) == opposed + [second]
        # flag, failed confirm, then one entry per flagged row
        assert global_cache().stats.delta_since(before).prune_lp_solves == 4
        assert prune_redundant_rows(opposed + [second, first]) == opposed + [first]
        assert sweep_prune(opposed + [first, second]) == opposed + [second]

    def test_unbounded_and_empty_systems_keep_their_rows(self):
        # no row bounds the others' minima: nothing is implied, nothing drops
        fan = [((1, 0, 0), False), ((1, 1, 0), False), ((1, -1, 0), False),
               ((2, 1, 3), False)]
        assert prune_redundant_rows(fan) == sweep_prune(fan)
        # empty but not visibly so (x + y >= 1, x <= 0, y <= 0): every LP is
        # infeasible, which decides nothing, so the undecided rows all stay
        empty = [((1, 1, -1), False), ((-1, 0, 0), False), ((0, -1, 0), False),
                 ((1, 2, 5), False), ((2, 1, 5), False)]
        assert prune_redundant_rows(empty) == sweep_prune(empty) == empty
