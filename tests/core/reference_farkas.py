"""Reference Farkas elimination: one Fourier–Motzkin cascade per form.

This is ``repro.core.farkas.farkas_constraints`` as it stood before the
multipliers were eliminated once per polyhedron over a generic form (commit
74d7ce2): the symbolic form's unknowns sit in the system beside the
multipliers, so legality and bounding each pay their own elimination.  It
exists only so the hypothesis tests in ``test_farkas_cone.py`` can require
the cone-and-substitute rows to describe *the same set of coefficient
vectors*.  Do not optimize it — slow and obvious is the point.
"""

from __future__ import annotations

from repro.ilp import LinearConstraint
from repro.polyhedra import AffExpr, BasicSet, Constraint
from repro.polyhedra.fourier_motzkin import (
    eliminate_columns,
    normalize_rows,
    prune_redundant_rows,
)


def _pruned_polyhedron(dep):
    """The dependence polyhedron with redundant rows removed (cached on the
    dependence object).

    Every constraint becomes a Farkas multiplier, and Fourier–Motzkin cost
    grows steeply with the multiplier count, so shrinking the polyhedron to
    its irredundant rows first pays for itself many times over on the large
    workloads (LBM d3q27 after splitting has hundreds of dependences with
    ~25 heavily redundant rows each).  Pruning preserves the rational hull,
    which is exactly the object the affine Farkas lemma reasons over.
    """
    cached = getattr(dep, "_pruned_polyhedron", None)
    if cached is not None:
        return cached
    poly = dep.polyhedron
    rows = [(con.coeffs, con.equality) for con in poly.constraints]
    pruned = prune_redundant_rows(normalize_rows(rows))
    out = BasicSet(poly.space)
    for coeffs, equality in pruned:
        out.add(Constraint(AffExpr(poly.space, coeffs), equality))
    dep._pruned_polyhedron = out
    return out


def reference_farkas_constraints(dep, form) -> list[LinearConstraint]:
    """Constraints on the unknowns making ``form`` non-negative on the polyhedron.

    The returned :class:`LinearConstraint` objects reference only unknown
    coefficient variable names (``c.*``, ``d.*``, ``c0.*``, ``u.*``, ``w``).
    """
    poly = _pruned_polyhedron(dep)
    space = poly.space
    cols = list(space.names) + ["1"]

    # Unknown variables appearing in the form.
    unknowns: list[str] = []
    seen = set()
    for terms in form.values():
        for name in terms:
            if name not in seen:
                seen.add(name)
                unknowns.append(name)

    lambdas = [f"~l{k}" for k in range(len(poly.constraints))]
    lambda0 = "~l_const"
    all_cols = unknowns + lambdas + [lambda0]  # + implicit const (always 0 here)
    col_index = {name: i for i, name in enumerate(all_cols)}
    width = len(all_cols) + 1  # + const column

    rows: list[tuple[tuple[int, ...], bool]] = []

    # One equality per product-space column: form[col] - sum_k l_k C_k[col]
    # ( - l0 for the constant column ) == 0.
    for ci, col in enumerate(cols):
        row = [0] * width
        for name, coef in form.get(col, {}).items():
            row[col_index[name]] += coef
        for k, con in enumerate(poly.constraints):
            coeff = con.coeffs[ci] if ci < len(con.coeffs) else 0
            if col == "1":
                coeff = con.coeffs[-1]
            row[col_index[lambdas[k]]] -= coeff
        if col == "1":
            row[col_index[lambda0]] -= 1
        rows.append((tuple(row), True))

    # Multiplier sign constraints: l_k >= 0 for inequalities, l0 >= 0.
    for k, con in enumerate(poly.constraints):
        if not con.equality:
            row = [0] * width
            row[col_index[lambdas[k]]] = 1
            rows.append((tuple(row), False))
    row = [0] * width
    row[col_index[lambda0]] = 1
    rows.append((tuple(row), False))

    # Eliminate all multipliers; prune redundant intermediate rows so the
    # FM cascade stays small (safe here: pruning preserves the rational set,
    # and the final constraints are over coefficients the verifier and the
    # validation harness independently check).
    elim_cols = [col_index[l] for l in lambdas] + [col_index[lambda0]]
    reduced = eliminate_columns(normalize_rows(rows), elim_cols, prune_threshold=80)

    out: list[LinearConstraint] = []
    for coeffs, equality in reduced:
        terms = {
            name: coeffs[col_index[name]]
            for name in unknowns
            if coeffs[col_index[name]] != 0
        }
        const = coeffs[-1]
        if not terms:
            if (equality and const != 0) or (not equality and const < 0):
                # Contradiction: the form cannot be non-negative on P.  Keep
                # it so the ILP becomes infeasible (callers rely on this).
                out.append(LinearConstraint({}, const, equality, label="farkas-infeasible"))
            continue
        out.append(LinearConstraint(terms, const, equality, label="farkas"))
    return out

