"""Affine form of the Farkas lemma: from "non-negative on a polyhedron" to
linear constraints on transformation coefficients.

Legality (paper eq. (2)): ``phi_t(t) - phi_s(s) >= 0`` for every point of the
dependence polyhedron ``P``.  By Farkas, an affine form is non-negative on a
(non-empty) polyhedron iff it is a non-negative combination of ``P``'s
constraints plus a non-negative constant:

    phi_t - phi_s  ==  l0 + sum_k l_k * C_k(s, t, p),     l0, l_k >= 0

(equality constraints of ``P`` get sign-free multipliers).  Matching the
coefficient of every product-space dimension, every parameter, and the
constant yields linear *equalities* relating the form's coefficients and the
multipliers; Fourier–Motzkin elimination of the multipliers, once per
polyhedron over a generic form (:func:`cone`), leaves the forms that qualify.
Substituting the unknown ``c/d/c0`` combinations for the form's coefficients
gives constraints purely over the unknowns, which are added to the
scheduling ILP.

Bounding (eq. (3)) substitutes ``u.p + w - (phi_t - phi_s)`` into the same cone.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.names import W_NAME, c0_name, c_name, d_name, u_name
from repro.deps.analysis import Dependence
from repro.frontend.ir import Statement
from repro.ilp import LinearConstraint
from repro.polyhedra.cache import MISS, active_cache
from repro.polyhedra.fourier_motzkin import (
    eliminate_columns,
    normalize_rows,
)

__all__ = ["farkas_constraints", "legality_constraints", "bounding_constraints"]

# A symbolic affine form over the product space: for each product-space
# column (dims, params, and "1"), a linear combination of unknown coefficient
# variables.  {col: {unknown: int}}
SymbolicForm = dict[str, dict[str, int]]


def _phi_form(stmt: Statement, rename: Mapping[str, str], sign: int) -> SymbolicForm:
    """The symbolic form of ``sign * phi_S`` in the product space."""
    form: SymbolicForm = {}
    for it in stmt.space.dims:
        form.setdefault(rename[it], {})[c_name(stmt, it)] = sign
    for p in stmt.space.params:
        form.setdefault(p, {})[d_name(stmt, p)] = sign
    form.setdefault("1", {})[c0_name(stmt)] = sign
    return form


def _add_form(a: SymbolicForm, b: SymbolicForm) -> SymbolicForm:
    out: SymbolicForm = {k: dict(v) for k, v in a.items()}
    for col, terms in b.items():
        dst = out.setdefault(col, {})
        for name, coef in terms.items():
            dst[name] = dst.get(name, 0) + coef
    return out


def delta_form(dep: Dependence) -> SymbolicForm:
    """``phi_t(t) - phi_s(s)`` as a symbolic form over ``dep``'s space."""
    return _add_form(
        _phi_form(dep.target, dep.tgt_rename, +1),
        _phi_form(dep.source, dep.src_rename, -1),
    )


def bound_minus_delta_form(dep: Dependence) -> SymbolicForm:
    """``u.p + w - (phi_t - phi_s)`` as a symbolic form."""
    neg = _add_form(
        _phi_form(dep.source, dep.src_rename, +1),
        _phi_form(dep.target, dep.tgt_rename, -1),
    )
    bound: SymbolicForm = {"1": {W_NAME: 1}}
    for p in dep.space.params:
        bound.setdefault(p, {})[u_name(p)] = 1
    return _add_form(bound, neg)


def _pruned_rows(dep: Dependence) -> tuple:
    """The dependence polyhedron's rows with redundant ones removed
    (memoised on the polyhedron, which is never mutated: the dependence
    itself is not written to).

    Every constraint becomes a Farkas multiplier, and Fourier–Motzkin cost
    grows steeply with the multiplier count, so shrinking the polyhedron to
    its irredundant rows first pays for itself many times over on the large
    workloads (LBM d3q27 after splitting has hundreds of dependences with
    ~25 heavily redundant rows each).  Pruning preserves the rational hull,
    which is exactly the object the affine Farkas lemma reasons over.
    """
    return dep.polyhedron.irredundant_rows()


def cone(poly: tuple, n: int) -> tuple:
    """The affine forms non-negative on the polyhedron ``poly`` (rows over
    ``n`` columns, constant last), as rows over the form's own ``n``
    coefficients ``e`` and a constant the homogeneous system leaves at 0:
    ``e . (x, 1) == l0 + sum_k l_k * poly_k(x)``, one equation per column,
    multipliers eliminated.  It knows nothing of a schedule, so legality,
    bounding and every dependence whose polyhedron has the same rows share
    one elimination, memoised in the :class:`PolyCache`.
    """
    cache = active_cache()
    if cache is not None:
        hit = cache.get_cone((n, poly))
        if hit is not MISS:
            return hit
    width = n + len(poly) + 2  # e | one multiplier per row | l0 | constant
    rows: list[tuple[tuple[int, ...], bool]] = []
    for j in range(n):
        row = [0] * width
        row[j] = 1
        for k, (coeffs, _) in enumerate(poly):
            row[n + k] = -coeffs[j]
        row[-2] = -1 if j == n - 1 else 0  # l0 enters the constant's equation only
        rows.append((tuple(row), True))
    for k in range(len(poly) + 1):  # l_k >= 0 for inequalities, l0 >= 0
        if k == len(poly) or not poly[k][1]:
            row = [0] * width
            row[n + k] = 1
            rows.append((tuple(row), False))

    # Eliminate all multipliers; prune redundant intermediate rows so the
    # FM cascade stays small (pruning preserves the rational set up to its LP
    # margin; the verifier and the validation harness independently check the
    # coefficients that come out).  Measured and left as it is (PR 23):
    # ancestry tracking here, as in ``eliminate_chain``, leaves other cone rows
    # that HiGHS likes less (heat-3dp's lexmin MIPs 16 -> 27 ms each), and
    # skipping ``_pruned_rows``' LP stage feeds redundant rows into those
    # models (heat-3dp 11.8 -> 15.2 s).
    reduced = eliminate_columns(
        normalize_rows(rows), range(n, width - 1), prune_threshold=80
    )
    out = tuple((coeffs[:n] + coeffs[-1:], equality) for coeffs, equality in reduced)
    if cache is not None:
        cache.put_cone((n, poly), out)
    return out


def farkas_constraints(dep: Dependence, form: SymbolicForm) -> list[LinearConstraint]:
    """Constraints on the unknowns making ``form`` non-negative on the polyhedron.

    The returned :class:`LinearConstraint` objects reference only unknown
    coefficient variable names (``c.*``, ``d.*``, ``c0.*``, ``u.*``, ``w``):
    each row of the polyhedron's :func:`cone` with ``form``'s entry for
    column ``j`` substituted for ``e_j``.
    """
    cols = [*dep.space.names, "1"]
    out: list[LinearConstraint] = []
    for coeffs, equality in cone(_pruned_rows(dep), len(cols)):
        terms: dict[str, int] = {}
        for g, col in zip(coeffs, cols):
            if g:
                for name, coef in form.get(col, {}).items():
                    terms[name] = terms.get(name, 0) + g * coef
        terms = {name: v for name, v in terms.items() if v}
        const = coeffs[-1]
        if terms:
            out.append(LinearConstraint(terms, const, equality, label="farkas"))
        elif const < 0 or (equality and const):
            # Contradiction: the form cannot be non-negative on P.  Keep
            # it so the ILP becomes infeasible (callers rely on this).
            out.append(LinearConstraint({}, const, equality, label="farkas-infeasible"))
    return out


def legality_constraints(dep: Dependence) -> list[LinearConstraint]:
    """Eq. (2): ``phi_t - phi_s >= 0`` on the dependence polyhedron."""
    return farkas_constraints(dep, delta_form(dep))


def bounding_constraints(dep: Dependence) -> list[LinearConstraint]:
    """Eq. (3): ``phi_t - phi_s <= u.p + w`` on the dependence polyhedron."""
    return farkas_constraints(dep, bound_minus_delta_form(dep))
