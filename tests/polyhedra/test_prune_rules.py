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
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilp import ILPModel, LPStatus
from repro.polyhedra.cache import cache_disabled, global_cache
from repro.polyhedra.fourier_motzkin import _row_rules, prune_redundant_rows
from tests.ilp.reference_lp import solve_lp_fraction


@st.composite
def row_systems(draw):
    """Small integer systems with equalities, duplicates and scaled copies.

    Most are feasible by construction (constants anchored on a witness
    point, inequalities with slack); one in five draws free constants so
    empty systems occur too.
    """
    n = draw(st.integers(1, 6))
    witness = [draw(st.integers(-3, 3)) for _ in range(n)]
    anchored = draw(st.integers(0, 4)) > 0
    rows = []
    for _ in range(draw(st.integers(2, 12))):
        kind = draw(st.sampled_from(["new", "new", "new", "copy", "scaled", "shifted"]))
        if rows and kind != "new":
            coeffs, equality = draw(st.sampled_from(rows))
            if kind == "scaled":
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
            const = -at + (0 if equality else draw(st.integers(0, 4)))
        else:
            const = draw(st.integers(-6, 6))
        rows.append((tuple(slope) + (const,), equality))
    return rows


def _exact_min(rows, objective):
    """Exact ``min objective.x`` over ``rows`` (free rational variables)."""
    model = ILPModel()
    names = [f"x{i}" for i in range(len(objective))]
    for name in names:
        model.add_variable(name, lower=None, upper=None, integer=False)
    for coeffs, equality in rows:
        model.add_constraint(dict(zip(names, coeffs[:-1])), coeffs[-1], equality)
    return solve_lp_fraction(model, dict(zip(names, objective)))


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
        assert (delta.prune_rule_rows, delta.prune_lp_solves) == (1, 3)
