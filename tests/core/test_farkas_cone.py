"""One multiplier elimination per polyhedron, decided against one per form.

``repro.core.farkas`` eliminates the Farkas multipliers once, over a generic
form ``e . (x, 1)``, and substitutes the legality or the bounding form for
``e`` afterwards.  The rows differ syntactically from the per-form
elimination kept in ``tests/core/reference_farkas.py``; they must describe
the same set of coefficient vectors:

* every integer vector of unknowns in a small box satisfies the substituted
  cone rows iff it satisfies the reference rows;
* a satisfying vector makes the form non-negative on every integer point of
  the polyhedron in a brute-forced box (the lemma's sound direction, checked
  without either elimination);
* the memo changes nothing: a hit, a cold call and ``cache_disabled()``
  return the same rows, and legality + bounding of one dependence cost one
  elimination.
"""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.farkas import (
    _pruned_rows,
    bound_minus_delta_form,
    delta_form,
    farkas_constraints,
)
from repro.deps import compute_dependences
from repro.deps.analysis import Dependence
from repro.ilp import LPStatus
from repro.pipeline import optimize
from repro.polyhedra import AffExpr, BasicSet, Constraint, Space
from repro.polyhedra import cache as poly_cache
from repro.polyhedra.cache import PolyCache, cache_disabled, global_cache
from repro.polyhedra.fourier_motzkin import normalize_rows
from repro.workloads import get_workload
from tests.core.reference_farkas import reference_farkas_constraints
from tests.polyhedra.reference_prune import exact_min

SP = Space(("s", "t"), ("N",))
COLS = [*SP.names, "1"]
UNKNOWNS = ("p", "q", "r")
BOX = 3
_coeff = st.integers(-2, 2)


def _dep(rows) -> Dependence:
    poly = BasicSet(SP)
    for coeffs, equality in rows:
        poly.add(Constraint(AffExpr(SP, tuple(coeffs)), equality))
    return Dependence(None, None, "raw", "A", poly, {}, {})


@st.composite
def polyhedra(draw):
    """Rows over ``(s, t, N, 1)``: a box on ``s, t`` or none (unbounded),
    0-2 equalities (often the uniform shape ``t = s + k``) and 0-3 free
    inequalities, which now and then cut everything off."""
    rows = []
    if draw(st.booleans()):
        for i in range(2):
            unit = [int(i == j) for j in range(3)]
            rows.append((unit + [0], False))                        # x >= 0
            rows.append(([-u for u in unit[:2]] + [1, -1], False))  # x <= N - 1
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            rows.append(([-1, 1, 0, -draw(st.integers(0, 2))], True))
        else:
            rows.append((draw(st.lists(_coeff, min_size=4, max_size=4)), True))
    for _ in range(draw(st.integers(0, 3))):
        rows.append((draw(st.lists(_coeff, min_size=4, max_size=4)), False))
    return rows


@st.composite
def forms(draw):
    """For each product-space column, a small combination of the unknowns."""
    form = {}
    for col in COLS:
        names = draw(st.lists(st.sampled_from(UNKNOWNS), max_size=2, unique=True))
        if names:
            form[col] = {n: draw(st.sampled_from([-2, -1, 1, 2])) for n in names}
    return form


def _holds(constraints, values) -> bool:
    for con in constraints:
        v = sum(c * values[n] for n, c in con.coeffs.items()) + con.const
        if v != 0 if con.equality else v < 0:
            return False
    return True


def _points(rows):
    """The integer points of the polyhedron in the brute-forced box."""
    for x in itertools.product(range(-BOX, BOX + 1), repeat=3):
        at = (*x, 1)
        if all(
            (v == 0 if equality else v >= 0)
            for coeffs, equality in rows
            for v in [sum(c * a for c, a in zip(coeffs, at))]
        ):
            yield at


#: ``s >= 1`` and ``s <= 0``: every form is non-negative on the empty set
EMPTY = [([1, 0, 0, -1], False), ([-1, 0, 0, 0], False)]


@given(polyhedra(), forms())
@example(EMPTY, {"s": {"p": 1}, "1": {"q": -1}})
@example([], {"t": {"p": 1}, "1": {"q": 1, "r": -1}})
@settings(max_examples=120, deadline=None, derandomize=True)
def test_substituted_cone_is_the_per_form_elimination(rows, form):
    got = farkas_constraints(_dep(rows), form)
    want = reference_farkas_constraints(_dep(rows), form)
    assert {n for con in got for n in con.coeffs} <= set(UNKNOWNS)
    # homogeneous system: neither side can find a constant-free form infeasible
    assert all(con.label == "farkas" and con.const == 0 for con in got + want)
    points = list(_points(rows))
    for vector in itertools.product(range(-2, 3), repeat=len(UNKNOWNS)):
        values = dict(zip(UNKNOWNS, vector))
        ok = _holds(got, values)
        assert ok == _holds(want, values), (values, got, want)
        if ok:
            e = [
                sum(c * values[n] for n, c in form.get(col, {}).items())
                for col in COLS
            ]
            assert all(sum(a * b for a, b in zip(e, at)) >= 0 for at in points)


def test_real_dependences_agree_with_the_reference():
    """Legality and bounding of every jacobi-1d dependence, on sampled
    coefficient vectors (the unknowns are too many to enumerate)."""
    rng = random.Random(22)
    deps = compute_dependences(get_workload("jacobi-1d-imper").program())
    assert deps
    for dep in deps:
        for form in (delta_form(dep), bound_minus_delta_form(dep)):
            got = farkas_constraints(dep, form)
            want = reference_farkas_constraints(dep, form)
            names = sorted({n for terms in form.values() for n in terms})
            verdicts = set()
            for _ in range(300):
                values = {n: rng.randint(-1, 2) for n in names}
                ok = _holds(got, values)
                assert ok == _holds(want, values), (dep, values)
                verdicts.add(ok)
            assert verdicts == {True, False}  # the sample exercises both sides


@pytest.mark.parametrize(
    "name", ["gemm", "jacobi-2d-imper", "fdtd-2d", "heat-1dp", "heat-2dp"]
)
def test_pruned_rows_drops_only_what_the_kept_rows_imply(name):
    """The cone is taken over the *pruned* polyhedron, and a row dropped in
    error would widen the cone — admit a schedule the dependence forbids.
    ``prune_redundant_rows``' LP stage errs that way if it errs (its
    tolerance favours dropping), so on the kernels ``test_solver_entries``
    counts, post-ISS, every dropped row is put to the exact ``Fraction``
    simplex: the kept rows must imply it."""
    workload = get_workload(name)
    program = optimize(workload.program(), workload.pipeline_options("plutoplus")).program
    dropped = 0
    by_rows = {_polyhedron_rows(dep): dep for dep in compute_dependences(program)}
    for rows, dep in by_rows.items():
        kept = list(_pruned_rows(dep))
        assert set(kept) <= set(rows)
        for coeffs, equality in set(rows) - set(kept):
            assert not equality
            res = exact_min(kept, coeffs[:-1])
            assert res.status == LPStatus.INFEASIBLE or (
                res.status == LPStatus.OPTIMAL and res.objective >= -coeffs[-1]
            ), (coeffs, kept)
            dropped += 1
    assert dropped


def _polyhedron_rows(dep) -> tuple:
    """What ``farkas._pruned_rows`` prunes."""
    return tuple(normalize_rows(
        [(con.coeffs, con.equality) for con in dep.polyhedron.constraints]
    ))


def test_one_elimination_serves_both_forms_and_the_memo_changes_nothing(monkeypatch):
    monkeypatch.setattr(poly_cache, "_GLOBAL", PolyCache())
    rows = [([1, 0, 0, 0], False), ([-1, 0, 1, -1], False), ([-1, 1, 0, -1], True)]
    form = {"s": {"p": -1}, "t": {"p": 1}, "N": {"q": 1}, "1": {"r": 1}}
    other = {"s": {"p": 1}, "t": {"p": -1}, "N": {"q": 1}, "1": {"r": 1}}
    dep = _dep(rows)
    cold = farkas_constraints(dep, form)
    farkas_constraints(dep, other)
    again = farkas_constraints(_dep(rows), form)  # another dependence, same rows
    stats = global_cache().stats
    assert (stats.cone_lookups, stats.cone_hits) == (3, 2)
    with cache_disabled():
        uncached = farkas_constraints(_dep(rows), form)
    assert (stats.cone_lookups, stats.cone_hits) == (3, 2)

    def key(cons):
        return [(sorted(c.coeffs.items()), c.const, c.equality) for c in cons]

    assert key(cold) == key(again) == key(uncached)


def test_a_contradiction_row_still_reaches_the_model(monkeypatch):
    """The multiplier system is homogeneous, so no elimination produces a
    constant row and no constant-free form is infeasible (all unknowns zero
    is the zero form); the guard is for a cone that carries one anyway —
    seeded here, the memo being keyed on content."""
    monkeypatch.setattr(poly_cache, "_GLOBAL", PolyCache())
    dep = _dep([([1, 0, 0, 0], False)])
    seeded = (((1, 0, 0, 0, 0), False), ((0, 0, 0, 0, -1), False))
    global_cache().put_cone((len(COLS), _pruned_rows(dep)), seeded)
    got = farkas_constraints(dep, {"s": {"p": 1}})
    assert [(c.coeffs, c.const, c.label) for c in got] == [
        ({"p": 1}, 0, "farkas"), ({}, -1, "farkas-infeasible"),
    ]
    # and the reference never emits one either, whatever the form
    want = reference_farkas_constraints(_dep(EMPTY), {"1": {"p": -1}})
    assert all(con.label == "farkas" for con in want)
