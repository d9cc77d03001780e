"""Fourier–Motzkin elimination over integer coefficient rows.

Operates on raw rows ``(coeffs, equality)`` where ``coeffs`` is a tuple over
some column order with the constant last — the same layout used by
:class:`~repro.polyhedra.affine.AffExpr`.  Working at the row level lets the
same routine serve set projection (:mod:`repro.polyhedra.sets`) and Farkas
multiplier elimination (:mod:`repro.core.farkas`), which use different spaces.

Elimination is rational (the standard FM shadow), which is what both
consumers want: Farkas systems are rational objects, and loop bounds only
need a superset of the integer projection.  Rows are GCD-normalized (which
floors an inequality's constant), de-duplicated and same-slope-subsumed
after every step.  What keeps the cascade from squaring: set projection
(:func:`eliminate_chain`) remembers each row's source rows and drops what
that ancestry proves redundant; multiplier elimination
(:func:`eliminate_columns`) picks a min-growth order and LP-prunes
(:func:`prune_redundant_rows`) above a row threshold.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

import numpy as np

from repro.ilp.highs_backend import block_minima
from repro.polyhedra.cache import MISS, active_cache, global_cache

__all__ = [
    "cancel",
    "eliminate_chain",
    "eliminate_column",
    "eliminate_columns",
    "normalize_row",
    "normalize_rows",
    "prune_redundant_rows",
    "substitute_equalities",
    "Row",
]

Row = tuple[tuple[int, ...], bool]  # (coefficients with constant last, equality?)


def _gcd_normalize(coeffs: Sequence[int], equality: bool) -> tuple[int, ...]:
    """``coeffs`` divided by the gcd of its variable coefficients, the
    constant floored (sound integer tightening of an inequality); ``coeffs``
    itself when that gcd is 0 or 1, or when it does not divide an
    equality's constant (no integer solution: the row stays visible for
    ``fastcheck``'s gcd rule)."""
    g = gcd(*coeffs[:-1])
    if g <= 1 or (equality and coeffs[-1] % g != 0):
        return tuple(coeffs)
    return tuple([c // g for c in coeffs])


def normalize_row(row: Row) -> Row | None:
    """GCD-normalize one row; ``None`` when it is trivially satisfied.

    Constant rows survive only as contradictions (emptiness witnesses) —
    the same policy :func:`normalize_rows` applies per row.  Used directly
    by the scheduler's constraint dedup, where rows arrive one at a time.
    """
    coeffs, equality = row
    norm = _gcd_normalize(coeffs, equality)
    if not any(norm[:-1]):
        c = norm[-1]
        if (equality and c != 0) or (not equality and c < 0):
            return (norm, equality)
        return None
    return (norm, equality)


def normalize_rows(rows: Iterable[Row]) -> list[Row]:
    """GCD-normalize, drop trivial rows, and de-duplicate (order-preserving)."""
    seen: set[tuple[tuple[int, ...], bool]] = set()
    out: list[Row] = []
    for row in rows:
        norm = normalize_row(row)
        if norm is None or norm in seen:
            continue
        seen.add(norm)
        out.append(norm)
    return _prune_subsumed(out)


def _prune_subsumed(rows: list[Row]) -> list[Row]:
    """Drop inequality rows implied by another row with identical slope.

    ``a.x + c1 >= 0`` subsumes ``a.x + c2 >= 0`` when ``c1 <= c2``.
    """
    best: dict[tuple[int, ...], int] = {}
    eqs: list[Row] = []
    order: list[tuple[int, ...]] = []
    for coeffs, equality in rows:
        if equality:
            eqs.append((coeffs, equality))
            continue
        slope = coeffs[:-1]
        if slope in best:
            best[slope] = min(best[slope], coeffs[-1])
        else:
            best[slope] = coeffs[-1]
            order.append(slope)
    ineqs = [(slope + (best[slope],), False) for slope in order]
    return eqs + ineqs


def cancel(coeffs: tuple[int, ...], eq: tuple[int, ...], col: int) -> tuple[int, ...]:
    """``coeffs`` with column ``col`` cancelled through the equality ``eq``,
    scaled by ``|eq[col]|`` only, so an inequality keeps its direction."""
    if not coeffs[col]:
        return coeffs
    scale = abs(eq[col])
    back = coeffs[col] if eq[col] > 0 else -coeffs[col]
    return tuple([scale * c - back * e for c, e in zip(coeffs, eq)])


def substitute_equalities(rows: Sequence[Row]) -> tuple[list, list | None]:
    """``rows`` (equalities first) with the equalities substituted out of
    the inequalities: ``(pivots, reduced)``.

    Integer Gaussian elimination by :func:`cancel`, no floor-tightening:
    the same rational set.  ``pivots`` lists the ``(column, equality)`` to
    cancel through, in order; ``reduced`` holds each inequality as a
    primitive slope over the free columns (``()`` for a constant row) and
    its rational constant (an int when the slope's gcd divides it, else a
    ``Fraction``), and is ``None`` when the system is visibly empty — an
    inconsistent equality or a negative constant row.
    """
    pivots: list[tuple[int, tuple[int, ...]]] = []
    reduced: list[tuple[tuple[int, ...], int | Fraction]] = []
    for coeffs, equality in rows:
        for col, piv in pivots:
            coeffs = cancel(coeffs, piv, col)
        g = gcd(*coeffs[:-1])
        if g == 0 and (coeffs[-1] < 0 or (equality and coeffs[-1])):
            return pivots, None
        if not equality:
            const = coeffs[-1]
            if g > 1:
                const = const // g if const % g == 0 else Fraction(const, g)
            slope = tuple([c // g for c in coeffs[:-1]]) if g else ()
            reduced.append((slope, const))
        elif g:
            pivots.append((next(i for i, c in enumerate(coeffs) if c), coeffs))
    return pivots, reduced


def _combine(rows: list[Row], hist: list[int], col: int) -> tuple[list[Row], list[int], int]:
    """One elimination step, un-normalised: ``(rows, ancestries, combined)``.
    An equality containing the column is substituted through (``combined``
    0, ancestries as they were); otherwise each lower bound is combined with
    each upper bound (1), the new row descending from both parents' sources."""
    for piv, equality in rows:
        if equality and piv[col]:
            kept = [(r, h) for r, h in zip(rows, hist) if r != (piv, True)]
            return [(cancel(c, piv, col), e) for (c, e), _ in kept], [h for _, h in kept], 0
    out: list[Row] = []
    out_hist: list[int] = []
    lower, upper = [], []  # (coeffs, ancestry) by sign: a x >= -rest, a x <= rest
    for row, h in zip(rows, hist):
        c = row[0][col]
        if c == 0:
            out.append(row)
            out_hist.append(h)
        else:
            (lower if c > 0 else upper).append((row[0], h))
    for lo, lo_hist in lower:
        a = lo[col]
        for up, up_hist in upper:
            b = -up[col]
            out.append((tuple([b * lc + a * uc for lc, uc in zip(lo, up)]), False))
            out_hist.append(lo_hist | up_hist)
    return out, out_hist, 1


def eliminate_column(rows: list[Row], col: int) -> list[Row]:
    """Eliminate one column (existential projection, rational shadow)."""
    return normalize_rows(_combine(rows, [0] * len(rows), col)[0])


def _elimination_cost(rows: list[Row], col: int) -> int:
    """Estimated row-count growth of eliminating ``col``.

    Substitution through an equality is free; otherwise the classic
    pos*neg - (pos+neg) estimate.
    """
    pos = neg = 0
    for coeffs, equality in rows:
        c = coeffs[col]
        if c == 0:
            continue
        if equality:
            return -len(rows)  # substitution: strictly shrinking
        if c > 0:
            pos += 1
        else:
            neg += 1
    return pos * neg - pos - neg


def eliminate_columns(
    rows: list[Row],
    cols: Sequence[int],
    prune_threshold: int = 0,
) -> list[Row]:
    """Eliminate several columns (existential projection).

    Columns are zeroed in place, not removed, so indices stay valid.  The
    elimination order is chosen greedily by the standard min-growth
    heuristic (equality substitutions first, then the column with the
    smallest ``pos*neg`` fan-out), which keeps the intermediate systems small
    on the Farkas systems this routine spends most of its time on.

    ``prune_threshold > 0`` LP-prunes whenever an intermediate system exceeds
    that many rows.  Set projection does not come here: an order it may not
    choose and a level it needs after every column are :func:`eliminate_chain`.
    """
    out = normalize_rows(rows)
    remaining = list(cols)
    while remaining:
        col = min(remaining, key=lambda c: _elimination_cost(out, c))
        remaining.remove(col)
        out = eliminate_column(out, col)
        if prune_threshold and len(out) > prune_threshold:
            out = prune_redundant_rows(out)
    return out


def _settle(rows: list[Row], hist: list[int], steps: int) -> tuple[list[Row], list[int]]:
    """Normalise a tracked system and drop what ancestry proves redundant.

    After ``steps`` combining eliminations an irredundant row descends from
    at most ``steps + 1`` sources (Kohler's count rule) and from no proper
    superset of another row's (the subset rule); of rows sharing a slope
    only the tightest matters.  Equal rows of incomparable ancestry both
    stay: either may be the parent that keeps a later ancestry minimal.
    """
    eqs: dict[Row, None] = {}
    tight: dict[tuple[int, ...], list[int]] = {}  # slope -> [constant, *ancestries]
    for row, h in zip(rows, hist):
        row = normalize_row(row)
        if row is None:
            continue
        if row[1]:
            eqs[row] = None
            continue
        group = tight.setdefault(row[0][:-1], [])  # a slope sits where first seen
        if h.bit_count() <= steps + 1 and (not group or row[0][-1] <= group[0]):
            if not group or row[0][-1] < group[0]:
                group[:] = [row[0][-1]]
            if h not in group[1:]:
                group.append(h)
    tags = {h for group in tight.values() for h in group[1:]}
    live = [
        ((slope + (group[0],), False), h)
        for slope, group in tight.items()
        for h in group[1:]
        if not any(t != h and t & h == t for t in tags)
    ]
    return list(eqs) + [r for r, _ in live], [0] * len(eqs) + [h for _, h in live]


#: Rows above which :func:`eliminate_chain` asks the LP after all: a guard
#: against a cascade, dear when it trips (the step after a restart is plain
#: FM).  Peaks under the ancestry rules: heat-2dp / lbm-*-d2q9 44, heat-3dp /
#: lbm-ldc-d3q27 129, nothing registered higher.  heat-3dp's emission reads
#: 7.6 / 6.0 / 0.68 / 0.23 s at 40 / 64 / 128 / 256 (EXPERIMENTS.md, PR 23).
CHAIN_PRUNE_THRESHOLD = 256


def eliminate_chain(
    rows: list[Row], cols: Sequence[int], prune_threshold: int = CHAIN_PRUNE_THRESHOLD
) -> list[list[Row]]:
    """Eliminate ``cols`` in the order given: the system after each one.

    Every row carries the set of source rows it descends from (a bitmask),
    so :func:`_settle` decides redundancy without an LP.  Substituting an
    equality restricts all rows alike and leaves ancestries alone.  The
    rules hold from any starting system: while nothing has been combined,
    or once :func:`prune_redundant_rows` has cut a system that outgrew
    ``prune_threshold``, the rows at hand become the sources.  Every system
    lies between the integer projection and the rational shadow.
    """
    out = normalize_rows(rows)
    hist, steps = [1 << i for i in range(len(out))], 0
    chain: list[list[Row]] = []
    for col in cols:
        out, hist, combined = _combine(out, hist, col)
        steps += combined
        out, hist = _settle(out, hist, steps)
        if steps and len(out) > prune_threshold:
            out, steps = prune_redundant_rows(out), 0
        level = list(dict.fromkeys(out))
        if not steps:  # nothing combined since: the rows at hand are the sources
            out, hist = level, [1 << i for i in range(len(level))]
        chain.append(list(level))
    return chain


#: Undecided rows per block LP.  An entry costs ~0.9 ms of scipy wrapper
#: whatever it carries, a block only its share of one simplex.  Cold heat-2dp
#: reads 2.77 / 1.36 / 1.22 / 1.15 / 1.14 / 1.14 s at 1 / 8 / 16 / 32 / 64 /
#: 128 (pruning entries 1584 / 262 / 178 / 128 / 102 / 96); the polybench
#: sweep is flat from 8.  32 takes the gain and bounds the sparse block
#: matrix (32 x rows by 32 x columns) and what a failed confirmation wastes.
PRUNE_CHUNK = 32


def prune_redundant_rows(rows: list[Row]) -> list[Row]:
    """Drop inequality rows implied by the remaining system (rational test).

    ``a.x + c >= 0`` is redundant iff ``min(a.x)`` over the other rows is
    ``>= -c``.  Three stages, each answering only what the one before left
    open; the result is ``equalities + surviving inequalities`` in input
    order, the same list an all-LP sequential sweep produces:

    1. **Memo.**  The answer is a pure function of the ordered row tuple, so
       it is looked up in the content-keyed :class:`PolyCache` ``prune``
       table first (per-array copies of one access pattern ask the same
       question).  A hit returns a fresh list.
    2. **Exact row rules** (:func:`_row_rules`), on the inequalities with
       the equalities substituted out: rule 1 drops constant and
       same-slope-dominated rows, rule 2 keeps any row that alone bounds a
       column from its side.
    3. **LP.**  The rows neither rule decides go to HiGHS
       :data:`PRUNE_CHUNK` at a time, two entries per chunk
       (:func:`_implied`).  One flags the rows that *all* other rows in use
       imply: an unflagged row no subset of them implies, so the sweep
       keeps it.  One confirms that the rows in use minus *all* flagged
       ones imply every flagged row: then so does the larger system the
       sweep tests each against, and the sweep drops exactly those.
       Failing that (mutually-implying rows, a non-optimal block) the sweep
       itself runs over the rows in question, one entry each.

    Dropping a weakly-touching row keeps the same rational set; where the
    ``1e-9`` margin of :func:`_implied` errs, it errs toward dropping — a
    superset.  The scan (:func:`eliminate_chain` above its threshold, the
    rarest caller) asks for no more than a superset of the integer
    projection: inner loop levels re-check exact bounds pointwise.  Farkas
    relies on the *same* rational set: ``farkas._pruned_rows`` prunes a
    dependence polyhedron, where a superset narrows the cone of legal forms
    (safe, but a lost schedule), and ``farkas.cone`` above 80 rows prunes
    the multiplier system, where a superset widens it — an illegal schedule
    admitted.  What stands behind the margin there is ``repro.core.verify``,
    the golden corpus and the exact oracle of ``tests/core/test_farkas_cone.py``.
    """
    eqs = [r for r in rows if r[1]]
    ineqs = [r for r in rows if not r[1]]
    if len(ineqs) <= 1:
        return list(rows)
    cache = active_cache()
    if cache is not None:
        key = tuple(rows)
        hit = cache.get_prune(key)
        if hit is not MISS:
            return list(hit)

    stats = global_cache().stats
    live, sole = _row_rules(eqs, ineqs)
    stats.prune_rule_rows += len(ineqs) - len(live) + len(sole)
    a = np.array([r[0] for r in eqs + ineqs], dtype=float)
    a, lo = a[:, :-1], -a[:, -1]  # every row reads a.x >= lo
    hi = np.where([r[1] for r in eqs + ineqs], lo, np.inf)
    used = np.arange(len(a)) < len(eqs)
    used[[len(eqs) + i for i in live]] = True
    undecided = [len(eqs) + i for i in live if i not in sole]
    for at in range(0, len(undecided), PRUNE_CHUNK):
        idx = np.flatnonzero(used)
        sub = a[idx], lo[idx], hi[idx]
        pos = np.searchsorted(idx, undecided[at : at + PRUNE_CHUNK])
        flagged = _implied(*sub, pos, [], stats)
        if flagged is not None:
            pos = pos[flagged]
            confirmed = _implied(*sub, pos, pos, stats)
            if confirmed is not None and confirmed.all():
                used[idx[pos]] = False
                continue
        dropped: list[int] = []
        for p in pos:  # the sequential sweep
            one = _implied(*sub, np.array([p]), dropped, stats)
            if one is not None and one[0]:
                dropped.append(p)
        used[idx[dropped]] = False

    out = eqs + [row for row, kept in zip(ineqs, used[len(eqs) :]) if kept]
    if cache is not None:
        cache.put_prune(key, tuple(out))
    return out


def _implied(a, lo, hi, rows, free, stats):
    """Which of ``rows`` the other rows of ``a.x >= lo``, less the ``free``
    ones, imply: one HiGHS entry, ``None`` if not optimal.  Block ``i``
    minimises row ``i``'s slope with row ``i`` itself relaxed by one, which
    bounds the block and leaves the minimum at ``>= lo[i]`` exactly when
    the other rows imply row ``i``."""
    if not len(rows):
        return np.ones(0, dtype=bool)
    stats.prune_lp_solves += 1
    los = np.tile(lo, (len(rows), 1))
    los[:, free] = -np.inf
    los[np.arange(len(rows)), rows] = lo[rows] - 1
    minima = block_minima(a[rows], a, los, hi)
    return None if minima is None else minima >= lo[rows] - 1e-9


def _row_rules(eqs: list[Row], ineqs: list[Row]) -> tuple[list[int], set[int]]:
    """The exact stage of :func:`prune_redundant_rows`: ``(live, sole)`` —
    the inequality indices rule 1 leaves, and those of them rule 2 keeps.

    Both rules read the inequalities with the equalities substituted out
    (:func:`substitute_equalities`), each as a primitive slope over the free
    columns and a rational constant.

    *Rule 1.*  A row that became a non-negative constant is implied by
    anything; of the rows sharing a slope only the one with the smallest
    constant can matter, since ``a.x + c1 >= 0`` implies ``a.x + c2 >= 0``
    for ``c1 <= c2``.  Of equal rows the *last* survives: a sequential sweep
    tests the earlier one first, finds it implied by its twin and drops it,
    and keeping that order keeps Farkas multiplier numbering and
    Fourier–Motzkin output byte-stable.

    *Rule 2.*  If a live row is the only one with a positive (negative)
    entry in some column, every other row is non-decreasing along ``-e_j``
    (``+e_j``) while this row decreases: its minimum over the others is
    unbounded, so it is irredundant and needs no LP.

    A visibly empty system (an inconsistent equality or a negative constant
    row) makes every redundancy question moot: all rows are kept.
    """
    reduced = substitute_equalities(eqs + ineqs)[1]
    if reduced is None:
        return list(range(len(ineqs))), set(range(len(ineqs)))
    tightest: dict[tuple[int, ...], int] = {}
    for i, (slope, const) in enumerate(reduced):
        if slope and (slope not in tightest or const <= reduced[tightest[slope]][1]):
            tightest[slope] = i
    live = sorted(tightest.values())
    sole: set[int] = set()
    for col in zip(*(reduced[i][0] for i in live)):
        for sign in (1, -1):
            side = [i for i, c in zip(live, col) if c * sign > 0]
            if len(side) == 1:
                sole.add(side[0])
    return live, sole
