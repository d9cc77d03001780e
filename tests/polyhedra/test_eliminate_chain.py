"""The history-tracked projection chain against plain Fourier–Motzkin.

``eliminate_chain`` decides redundancy from each row's ancestry (Kohler's
count rule, the subset rule) instead of an LP.  The reference is the
untracked ``eliminate_column`` in a loop — every pairwise combination kept,
nothing but normalisation — and implication is decided by the dense
``Fraction`` simplex of ``tests/ilp/reference_lp.py``, which shares no code
with the rules or with HiGHS.  What must hold is a sandwich, not row
identity: ``_gcd_normalize`` floors constants, so a row that is redundant
over the rationals can be tighter over the integers, and the tracked chain
may rightly drop it (``TestHeat1dpRegression``).

* *Sound*: every integer point of the input projects into every level.
* *Tight*: every row of every level is implied by the reference rows of
  that level; on homogeneous input (no constant is ever floored) the
  reference rows are implied back — the same rational set.
* ``project_out`` is the last set of ``project_chain`` (its memo is pinned in
  ``test_poly_cache.py``).
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.polyhedra import BasicSet, Space
from repro.polyhedra.cache import global_cache
from repro.polyhedra.affine import AffExpr
from repro.polyhedra.constraints import Constraint
from repro.polyhedra.fourier_motzkin import (
    eliminate_chain,
    eliminate_column,
    normalize_rows,
)
from tests.ilp.simplex import LPStatus
from tests.polyhedra.reference_prune import exact_min


def plain_chain(rows, cols):
    """Untracked Fourier–Motzkin, one column at a time: the reference."""
    out, chain = normalize_rows(rows), []
    for col in cols:
        out = eliminate_column(out, col)
        chain.append(out)
    return chain


def implied(rows, row) -> bool:
    """Whether ``row`` holds on every rational point of ``rows``."""
    coeffs, equality = row
    sides = [coeffs, tuple(-c for c in coeffs)] if equality else [coeffs]
    for side in sides:
        res = exact_min(rows, side[:-1])
        if res.status == LPStatus.INFEASIBLE:
            return True
        if res.status != LPStatus.OPTIMAL or res.objective < -side[-1]:
            return False
    return True


def members(rows, box):
    """The integer points of ``box`` (an array, constant column of ones
    last) that satisfy ``rows``."""
    a = np.array([r[0] for r in rows], dtype=np.int64).reshape(len(rows), box.shape[1])
    eq = np.array([r[1] for r in rows], dtype=bool)
    values = box @ a.T
    return ((values >= 0) & (~eq | (values == 0))).all(axis=1)


def box_points(n, radius):
    grid = itertools.product(range(-radius, radius + 1), repeat=n)
    return np.array([p + (1,) for p in grid], dtype=np.int64)


@st.composite
def systems(draw, homogeneous=False):
    """``(columns, rows, elimination order)``: 2–5 columns, 4–12 rows of
    which 0–2 equalities.  ``kind`` picks the shape: a box around the origin
    plus cuts (bounded), free slopes (mostly unbounded), or constants drawn
    against each other (sometimes empty).  Constants that do and do not
    divide their row's gcd both occur; homogeneous draws have none."""
    n = draw(st.integers(2, 5))
    kind = "cone" if homogeneous else draw(st.sampled_from(["box", "free", "clash"]))
    coeff = st.integers(-3, 3)
    rows = []
    if kind == "box":
        for j in range(n):
            unit = tuple(int(i == j) for i in range(n))
            rows.append((unit + (draw(st.integers(0, 3)),), False))
            rows.append((tuple(-c for c in unit) + (draw(st.integers(0, 3)),), False))
    while len(rows) < draw(st.integers(4, 12)):
        slope = draw(st.lists(coeff, min_size=n, max_size=n).filter(any))
        const = 0 if homogeneous else draw(st.integers(-2, 7) if kind != "clash" else st.integers(-6, 2))
        rows.append((tuple(slope) + (const,), False))
    for _ in range(draw(st.integers(0, 2))):
        slope = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any))
        rows.append((tuple(slope) + (0 if homogeneous else draw(st.integers(-2, 2)),), True))
    order = draw(st.permutations(range(n)))[: draw(st.integers(1, n - 1))]
    return n, draw(st.permutations(rows)), list(order)


class TestSound:
    @given(systems(), st.sampled_from([3, 8, 64]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_integer_points_project_into_every_level(self, system, threshold):
        n, rows, order = system
        box = box_points(n, 3 if n <= 4 else 2)
        inside = box[members(rows, box)]
        for level in eliminate_chain(rows, order, prune_threshold=threshold):
            assert members(level, inside).all()

    def test_empty_input_stays_sound_and_visibly_empty(self):
        rows = [((1, 0, -2), False), ((-1, 0, 1), False), ((1, 1, 0), False)]
        chain = eliminate_chain(rows, [0, 1])
        assert ((0, 0, -1), False) in chain[0]  # x >= 2 and x <= 1


class TestTight:
    @given(systems())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_every_row_is_implied_by_plain_elimination(self, system):
        _, rows, order = system
        order = order[:3]  # the reference squares its row count per column
        for level, reference in zip(eliminate_chain(rows, order), plain_chain(rows, order)):
            for row in level:
                assert implied(reference, row), (row, reference)

    @given(systems(homogeneous=True), st.sampled_from([4, 64]))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_homogeneous_input_keeps_the_rational_set(self, system, threshold):
        _, rows, order = system
        order = order[:3]
        chain = eliminate_chain(rows, order, prune_threshold=threshold)
        for level, reference in zip(chain, plain_chain(rows, order)):
            for row in level:
                assert implied(reference, row), (row, reference)
            for row in reference:
                assert implied(level, row), (row, level)


class TestProjectChain:
    SPACE = Space(("x", "y", "z"), ("N",))

    def _set(self):
        return BasicSet.from_bounds(
            self.SPACE, {"x": (0, "N"), "y": ("x", "N"), "z": ("y", 7)}
        )

    @given(systems())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_project_out_is_the_last_of_the_chain(self, system):
        n, rows, order = system
        names = tuple(f"v{i}" for i in range(n))
        space = Space(names, ())
        bset = BasicSet(space, [Constraint(AffExpr(space, c), eq) for c, eq in rows])
        drop = [names[i] for i in order]
        chain = bset.project_chain(drop)
        assert len(chain) == len(drop)
        assert bset.project_out(drop) == chain[-1]
        for done, level in enumerate(chain, 1):
            assert level.space == space.drop_dims(drop[:done])

    def test_nothing_to_project_is_the_set_itself(self):
        bset = self._set()
        assert bset.project_chain([]) == []
        assert bset.project_out([]) == bset and bset.project_out([]) is not bset


class TestHeat1dpRegression:
    """heat-1dp, statement ``S0_m``, diamond-tiled at 32: the scan system over
    ``(z0, z1, z2, z3, t, i; T, N | 1)`` as ``ScanSystem`` builds it.  Plain
    FM derives ``-32.z1 + 2T - 3 >= 0`` from four source rows after two
    combining eliminations and normalisation floors it to ``-16.z1 + T - 2
    >= 0`` — rationally redundant (the count rule drops it, no LP asked),
    integrally tighter than what remains.  Dropping it widens the level and
    loses no point."""

    ROWS = [
        ((0, 0, 0, 0, 1, 0, 0, 0, 0), False),       # t >= 0
        ((0, 0, 0, 0, -1, 0, 1, 0, -1), False),     # t <= T - 1
        ((0, 0, 0, 0, 0, 1, 0, 0, 0), False),       # i >= 0
        ((0, 0, 0, 0, 0, -1, 0, 1, -1), False),     # i <= N - 1
        ((0, 0, 0, 0, 0, -2, 0, 1, -1), False),     # the ISS cut: 2i <= N - 1
        ((-32, 0, 0, 0, 1, -1, 0, 1, 0), False),    # 32.z0 <= t - i + N
        ((32, 0, 0, 0, -1, 1, 0, -1, 31), False),   #          <= 32.z0 + 31
        ((0, -32, 0, 0, 1, 1, 0, -1, 0), False),    # 32.z1 <= t + i - N
        ((0, 32, 0, 0, -1, -1, 0, 1, 31), False),   #          <= 32.z1 + 31
        ((0, 0, 1, 0, -1, 1, 0, -1, 0), True),      # z2 == t - i + N
        ((0, 0, 0, 1, -1, -1, 0, 1, 0), True),      # z3 == t + i - N
    ]
    ORDER = [4, 5, 3, 2, 1]  # t, i, z3, z2, z1
    FLOORED = ((0, -16, 0, 0, 0, 0, 1, 0, -2), False)

    def test_floored_row_is_dropped_without_an_lp(self):
        before = global_cache().stats.prune_lp_solves
        chain = eliminate_chain(self.ROWS, self.ORDER)
        assert global_cache().stats.prune_lp_solves == before
        assert [len(level) for level in chain[1:]] == [9, 12, 13, 5]
        assert self.FLOORED in plain_chain(self.ROWS, self.ORDER)[3]
        assert self.FLOORED not in chain[3]

    def test_every_statement_instance_is_still_scanned(self):
        chain = eliminate_chain(self.ROWS, self.ORDER)
        points = []
        for big_t, big_n in [(1, 1), (3, 4), (33, 7), (40, 70), (70, 40)]:
            for t in range(big_t):
                for i in range((big_n - 1) // 2 + 1):
                    up, down = t - i + big_n, t + i - big_n
                    points.append((up // 32, down // 32, up, down, t, i, big_t, big_n, 1))
        points = np.array(points, dtype=np.int64)
        assert members(self.ROWS, points).all()
        for level in chain:
            assert members(level, points).all()
