"""Tests for spaces and affine expressions."""

import pickle
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.polyhedra import AffExpr, BasicSet, Constraint, Space
from repro.polyhedra import affine
from repro.polyhedra.constraints import _normalize
from repro.polyhedra.fastcheck import fast_reject
from repro.polyhedra.fourier_motzkin import normalize_row


@pytest.fixture
def sp():
    return Space(("i", "j"), ("N",))


class TestSpace:
    def test_ncols(self, sp):
        assert sp.ncols == 4  # i, j, N, 1

    def test_column_of(self, sp):
        assert sp.column_of("i") == 0
        assert sp.column_of("N") == 2
        assert sp.const_col == 3

    def test_unknown_name(self, sp):
        with pytest.raises(KeyError):
            sp.column_of("k")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Space(("i", "i"))
        with pytest.raises(ValueError):
            Space(("i",), ("i",))

    def test_add_drop_dims(self, sp):
        bigger = sp.add_dims(["k"])
        assert bigger.dims == ("i", "j", "k")
        smaller = bigger.drop_dims(["j"])
        assert smaller.dims == ("i", "k")

    def test_product_renames(self, sp):
        prod = sp.product(sp, {"i": "i'", "j": "j'"})
        assert prod.dims == ("i", "j", "i'", "j'")
        assert prod.params == ("N",)

    def test_product_requires_same_params(self, sp):
        with pytest.raises(ValueError):
            sp.product(Space(("k",), ("M",)), {})


class TestAffExpr:
    def test_var_and_const(self, sp):
        e = AffExpr.var(sp, "i") + AffExpr.const(sp, 3)
        assert e.coeff_of("i") == 1
        assert e.const_term == 3

    def test_from_terms(self, sp):
        e = AffExpr.from_terms(sp, {"i": 1, "j": -1, "N": 1}, 2)
        assert e.coeffs == (1, -1, 1, 2)

    def test_arithmetic(self, sp):
        i = AffExpr.var(sp, "i")
        j = AffExpr.var(sp, "j")
        e = 2 * i - j + 5
        assert e.coeffs == (2, -1, 0, 5)
        assert (-e).coeffs == (-2, 1, 0, -5)

    def test_rsub(self, sp):
        i = AffExpr.var(sp, "i")
        e = 10 - i
        assert e.coeffs == (-1, 0, 0, 10)

    def test_evaluate(self, sp):
        e = AffExpr.from_terms(sp, {"i": 1, "j": 1, "N": -1}, 1)
        assert e.evaluate({"i": 3, "j": 4, "N": 5}) == 3

    def test_space_mismatch_raises(self, sp):
        other = Space(("k",))
        with pytest.raises(ValueError):
            AffExpr.var(sp, "i") + AffExpr.var(other, "k")

    def test_immutability(self, sp):
        e = AffExpr.var(sp, "i")
        with pytest.raises(AttributeError):
            e.coeffs = (0, 0, 0, 0)

    def test_terms_excludes_zero(self, sp):
        e = AffExpr.from_terms(sp, {"i": 1, "j": 0}, 7)
        assert e.terms() == {"i": 1}

    def test_is_constant(self, sp):
        assert AffExpr.const(sp, 4).is_constant()
        assert not AffExpr.var(sp, "i").is_constant()

    def test_rebase_with_rename(self, sp):
        target = Space(("s_i", "s_j", "t_i"), ("N",))
        e = AffExpr.from_terms(sp, {"i": 2, "j": 1}, -1)
        r = e.rebase(target, {"i": "s_i", "j": "s_j"})
        assert r.coeff_of("s_i") == 2
        assert r.coeff_of("t_i") == 0
        assert r.const_term == -1

    def test_normalized(self, sp):
        e = AffExpr.from_terms(sp, {"i": 2, "j": 4}, 6)
        assert e.normalized().coeffs == (1, 2, 0, 3)

    def test_str_readable(self, sp):
        e = AffExpr.from_terms(sp, {"i": 1, "j": -1, "N": 1})
        assert str(e) == "i - j + N"

    def test_wrong_length_rejected(self, sp):
        with pytest.raises(ValueError):
            AffExpr(sp, (1, 2, 3))

    @pytest.mark.parametrize("value", [1.9, 0.5, Fraction(1, 2), "2", True])
    def test_non_integral_coefficient_rejected(self, sp, value):
        with pytest.raises((TypeError, ValueError)):
            AffExpr(sp, (value, 0, 0, 0))
        with pytest.raises((TypeError, ValueError)):
            AffExpr.from_terms(sp, {"i": value})
        with pytest.raises((TypeError, ValueError)):
            AffExpr.from_terms(sp, {}, value)
        with pytest.raises((TypeError, ValueError)):
            AffExpr.const(sp, value)

    @pytest.mark.parametrize("value", [2, np.int64(2), Fraction(4, 2)])
    def test_integral_coefficient_becomes_an_int(self, sp, value):
        for e in (
            AffExpr(sp, (value, 0, 0, value)),
            AffExpr.from_terms(sp, {"i": value}, value),
        ):
            assert e.coeffs == (2, 0, 0, 2)
            assert all(type(c) is int for c in e.coeffs)
        assert AffExpr.const(sp, value).coeffs == (0, 0, 0, 2)


# -- the row kernel against its definitions before 1.27.0 ----------------------
#
# Each ``_old_*`` below is the code the fast path replaced, kept verbatim in
# substance: name lookups by tuple scan, ``rebase`` through a terms dict, and
# one ``gcd`` call per coefficient.

NAMES = ("a", "b", "c", "d", "e", "f")
PARAMS = ("M", "N")


def _old_column_of(space, name):
    if name in space.dims:
        return space.dims.index(name)
    if name in space.params:
        return len(space.dims) + space.params.index(name)
    raise KeyError(f"{name!r} not in space {space}")


def _old_rebase(expr, target, rename=None):
    rename = rename or {}
    terms = {rename.get(name, name): coeff for name, coeff in expr.terms().items()}
    coeffs = [0] * target.ncols
    for name, c in terms.items():
        coeffs[_old_column_of(target, name)] += int(c)
    coeffs[-1] += int(expr.const_term)
    return tuple(coeffs)


def _old_gcd(values):
    g = 0
    for c in values:
        g = gcd(g, abs(c))
    return g


def _old_normalized(coeffs):
    g = _old_gcd(coeffs)
    return coeffs if g <= 1 else tuple(c // g for c in coeffs)


def _old_constraint_normalize(coeffs, equality):
    var_gcd = _old_gcd(coeffs[:-1])
    if var_gcd <= 1 or (equality and coeffs[-1] % var_gcd != 0):
        return coeffs
    return tuple(c // var_gcd for c in coeffs[:-1]) + (coeffs[-1] // var_gcd,)


def _old_normalize_row(coeffs, equality):
    g = _old_gcd(coeffs[:-1])
    if g > 1 and not (equality and coeffs[-1] % g != 0):
        coeffs = tuple(c // g for c in coeffs[:-1]) + (coeffs[-1] // g,)
    if all(c == 0 for c in coeffs[:-1]):
        c = coeffs[-1]
        if (equality and c != 0) or (not equality and c < 0):
            return (coeffs, equality)
        return None
    return (coeffs, equality)


def _old_fast_reject(bs):
    intervals = {}
    for con in bs.constraints:
        coeffs = con.coeffs
        var = coeffs[:-1]
        c = coeffs[-1]
        first = next((v for v in var if v != 0), 0)
        if first == 0:
            if con.is_contradiction():
                return True
            continue
        if con.equality:
            g = 0
            for v in var:
                g = gcd(g, abs(v))
            if c % g != 0:
                return True
        if first < 0:
            slope = tuple(-v for v in var)
            flipped = True
        else:
            slope = var
            flipped = False
        bounds = intervals.setdefault(slope, [None, None])
        if con.equality:
            value = c if flipped else -c
            if bounds[0] is None or value > bounds[0]:
                bounds[0] = value
            if bounds[1] is None or value < bounds[1]:
                bounds[1] = value
        elif flipped:
            if bounds[1] is None or c < bounds[1]:
                bounds[1] = c
        else:
            if bounds[0] is None or -c > bounds[0]:
                bounds[0] = -c
        if bounds[0] is not None and bounds[1] is not None and bounds[0] > bounds[1]:
            return True
    return False


@st.composite
def spaces(draw):
    dims = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=4))
    params = draw(st.lists(st.sampled_from(PARAMS), unique=True, max_size=2))
    return Space(tuple(dims), tuple(params))


def coefficient_rows(n):
    return st.lists(
        st.one_of(st.just(0), st.integers(-12, 12)), min_size=n, max_size=n
    ).map(tuple)


@st.composite
def expressions(draw):
    space = draw(spaces())
    return AffExpr(space, draw(coefficient_rows(space.ncols)))


@st.composite
def rebase_cases(draw):
    """An expression, a target space and a rename: renames may send two
    names onto one, or onto a name the target lacks."""
    expr = draw(expressions())
    rename = draw(st.dictionaries(
        st.sampled_from(expr.space.dims) if expr.space.dims else st.nothing(),
        st.sampled_from(NAMES + ("x", "y")),
        max_size=len(expr.space.dims),
    ))
    wanted = [rename.get(n, n) for n in expr.space.names]
    extra = draw(st.lists(st.sampled_from(NAMES + ("x", "y")), max_size=3))
    pool = [n for n in dict.fromkeys(wanted + extra) if n not in PARAMS]
    keep = [n for n in pool if draw(st.booleans()) or draw(st.booleans())]
    keep = draw(st.permutations(keep))
    return expr, Space(tuple(keep), expr.space.params), rename


def _outcome(fn):
    try:
        return fn()
    except KeyError as e:
        return ("KeyError", str(e))


class TestRowKernel:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(rebase_cases())
    def test_rebase_matches_terms_based_rebase(self, case):
        expr, target, rename = case
        old = _outcome(lambda: _old_rebase(expr, target, rename))
        new = _outcome(lambda: expr.rebase(target, rename).coeffs)
        assert new == old
        # a second call answers from the embedding memo
        assert _outcome(lambda: expr.rebase(target, rename).coeffs) == old

    def test_rebase_edge_cases(self):
        src = Space(("i", "j"), ("N",))
        target = Space(("j", "k"), ("N",))
        e = AffExpr.from_terms(src, {"i": 3, "j": 5}, 1)
        # two names onto one column: the later nonzero one is kept
        assert e.rebase(target, {"i": "j"}).coeffs == _old_rebase(e, target, {"i": "j"})
        assert e.rebase(target, {"i": "j"}).coeffs == (5, 0, 0, 1)
        zero_j = AffExpr.from_terms(src, {"i": 3}, 1)
        assert zero_j.rebase(target, {"i": "j"}).coeffs == (3, 0, 0, 1)
        # a nonzero coefficient on a missing column raises, naming it;
        # a zero one is dropped
        with pytest.raises(KeyError, match="'i' not in space"):
            e.rebase(target)
        assert AffExpr.from_terms(src, {"j": 2}).rebase(target).coeffs == (2, 0, 0, 0)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.integers(1, 6).flatmap(coefficient_rows), st.booleans())
    def test_gcd_normalizers_match_the_gcd_loop(self, row, equality):
        # rows with zeros, negative entries, one column, all zeros
        space = Space(tuple(NAMES[: len(row) - 1]))
        expr = AffExpr(space, row)
        assert expr.normalized().coeffs == _old_normalized(row)
        assert _normalize(expr, equality).coeffs == _old_constraint_normalize(
            row, equality
        )
        assert normalize_row((row, equality)) == _old_normalize_row(row, equality)

    @pytest.mark.parametrize("row", [(0,), (5,), (-5,), (0, 0, 0), (0, -4, 6), (7, 0, -14)])
    @pytest.mark.parametrize("equality", [False, True])
    def test_gcd_normalizers_on_edge_rows(self, row, equality):
        expr = AffExpr(Space(tuple(NAMES[: len(row) - 1])), row)
        assert expr.normalized().coeffs == _old_normalized(row)
        assert _normalize(expr, equality).coeffs == _old_constraint_normalize(
            row, equality
        )
        assert normalize_row((row, equality)) == _old_normalize_row(row, equality)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(coefficient_rows(3), st.booleans()), max_size=4))
    def test_fast_reject_matches_the_gcd_loop(self, rows):
        space = Space(("i", "j"))
        bs = BasicSet(space, [Constraint(AffExpr(space, r), eq) for r, eq in rows])
        assert fast_reject(bs) == _old_fast_reject(bs)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(spaces(), spaces())
    def test_space_equality_and_hash_are_the_field_tuples(self, a, b):
        assert (a == b) == ((a.dims, a.params) == (b.dims, b.params))
        assert hash(a) == hash((a.dims, a.params))
        copy = pickle.loads(pickle.dumps(a))
        assert copy == a and hash(copy) == hash(a) and copy.ncols == a.ncols
        assert a.__eq__(object()) is NotImplemented

    def test_embedding_memo_stays_under_its_cap(self):
        target = Space(("z",), ("N",))
        for k in range(affine.EMBEDDING_CAP + 50):
            source = Space((f"y{k}",), ("N",))  # a new embedding each time
            assert AffExpr.var(source, "N").rebase(target).coeffs == (0, 1, 0)
            assert len(affine._EMBEDDINGS) <= affine.EMBEDDING_CAP
