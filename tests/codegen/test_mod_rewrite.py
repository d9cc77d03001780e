"""``a % m`` in a C body: rewritten only under proof, equal to Python's."""

import ast
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen.c_emit import _MOD_C, _expr_c, mod_form
from repro.polyhedra import AffExpr, BasicSet, Space, ineq

SPACE = Space(("i",), ("N",))


def _as_python(form: str) -> str:
    """The C template of ``form`` as a Python expression over ``a``, ``m``."""
    text = _MOD_C[form].format(a="a", m="m")
    return re.sub(r"\((.*) \? (.*) : (.*)\)", r"(\2 if \1 else \3)", text)


@given(
    ci=st.integers(-2, 2), cn=st.integers(-1, 2), c0=st.integers(-6, 6),
    mn=st.integers(0, 1), m0=st.integers(-2, 3),
    lo=st.integers(-3, 3), width=st.integers(0, 2), off=st.integers(-3, 3),
    nmin=st.integers(1, 4), nspan=st.integers(0, 4),
)
@settings(max_examples=200, deadline=None)
def test_rewritten_mod_equals_python_mod_on_every_domain_point(
    ci, cn, c0, mn, m0, lo, width, off, nmin, nspan
):
    # lo <= i <= width*N + off,  nmin <= N <= nmin + nspan
    domain = BasicSet(SPACE, [
        ineq(SPACE, {"i": 1}, -lo),
        ineq(SPACE, {"i": -1, "N": width}, off),
        ineq(SPACE, {"N": 1}, -nmin),
        ineq(SPACE, {"N": -1}, nmin + nspan),
    ])
    a = AffExpr.from_terms(SPACE, {"i": ci, "N": cn}, c0)
    m = AffExpr.from_terms(SPACE, {"N": mn}, m0)
    form, proof = mod_form(domain, a, m)
    assert (form == "mod") == (not proof)
    rewritten = compile(_as_python(form), "<form>", "eval")
    for n in range(nmin, nmin + nspan + 1):
        for (i,) in domain.enumerate_points({"N": n}):
            env = {"i": i, "N": n}
            av, mv = a.evaluate(env), m.evaluate(env)
            if form == "mod" and mv == 0:
                continue  # Python raises too; nothing was rewritten
            got = eval(rewritten, {"repro_mod": lambda x, y: x % y}, {"a": av, "m": mv})
            assert got == av % mv, (form, env)


def _body_c(expr: str, domain: BasicSet) -> str:
    return _expr_c(ast.parse(expr, mode="eval").body, {}, domain)


def test_free_parameter_offset_keeps_the_division():
    space = Space(("i",), ("N", "k"))
    domain = BasicSet(space, [ineq(space, {"i": 1}), ineq(space, {"i": -1, "N": 1}, -1)])
    assert _body_c("(i + k) % N", domain) == "repro_mod((i + k), N)"
    # the same access with the offset pinned is provable
    assert _body_c("(i + 1) % N", domain) == "((i + 1) >= N ? (i + 1) - N : (i + 1))"


def test_non_affine_operand_keeps_the_division():
    domain = BasicSet(SPACE, [ineq(SPACE, {"i": 1}), ineq(SPACE, {"i": -1, "N": 1}, -1)])
    assert _body_c("(i * i) % N", domain) == "repro_mod((i * i), N)"
    assert _body_c("i % N", None) == "repro_mod(i, N)"
    assert _body_c("i % N", domain) == "i"
