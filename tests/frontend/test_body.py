"""Tests for body access extraction and C-to-Python conversion."""

import re

import numpy as np
import pytest

from repro.frontend import (
    BodySyntaxError,
    ProgramBuilder,
    extract_accesses,
    split_assignment,
    to_python,
)
from repro.polyhedra import BasicSet, Space


@pytest.fixture
def sp():
    return Space(("i", "j"), ("N",))


@pytest.fixture
def dom(sp):
    return BasicSet(sp)


class TestSplitAssignment:
    def test_plain(self):
        assert split_assignment("A[i] = B[i] + 1;") == ("A[i]", "", "B[i] + 1")

    def test_compound(self):
        assert split_assignment("x += y") == ("x", "+", "y")

    def test_no_assignment_raises(self):
        with pytest.raises(BodySyntaxError):
            split_assignment("A[i] + B[i];")


class TestExtractAccesses:
    def test_simple(self, dom):
        writes, reads = extract_accesses("A[i][j] = B[j][i] + A[i][j-1]", dom)
        assert [w.array for w in writes] == ["A"]
        assert sorted(r.array for r in reads) == ["A", "B"]

    def test_access_maps(self, dom):
        writes, reads = extract_accesses("A[i+1][j+1] = A[i][j]", dom)
        assert writes[0].map.apply({"i": 2, "j": 3, "N": 0}) == (3, 4)
        assert reads[0].map.apply({"i": 2, "j": 3, "N": 0}) == (2, 3)

    def test_scalar_read(self, dom):
        writes, reads = extract_accesses("A[i][j] = alpha * A[i][j]", dom)
        names = {r.array for r in reads}
        assert "alpha" in names
        alpha = next(r for r in reads if r.array == "alpha")
        assert alpha.map.n_out == 0  # 0-d access

    def test_scalar_write(self, dom):
        writes, _ = extract_accesses("x = A[i][i]", dom)
        assert writes[0].array == "x" and writes[0].map.n_out == 0

    def test_compound_reads_lhs(self, dom):
        _, reads = extract_accesses("A[i][j] += B[i][j]", dom)
        assert sorted(r.array for r in reads) == ["A", "B"]

    def test_function_not_data(self, dom):
        _, reads = extract_accesses("A[i][j] = sqrt(B[i][j])", dom)
        assert {r.array for r in reads} == {"B"}

    def test_nonaffine_subscript_rejected(self, dom):
        with pytest.raises(BodySyntaxError):
            extract_accesses("A[i*j] = 0", dom)

    def test_numeric_rhs_no_reads(self, dom):
        _, reads = extract_accesses("A[i][j] = 0.5", dom)
        assert reads == []

    def test_repeated_read_recorded_once(self, dom):
        _, reads = extract_accesses(
            "A[i][j] += B[i][j] * B[i][j] + A[i][j] + B[j][i]", dom
        )
        point = {"i": 1, "j": 2, "N": 0}
        assert [(r.array, r.map.apply(point)) for r in reads] == [
            ("A", (1, 2)), ("B", (1, 2)), ("B", (2, 1)),
        ]


def _reads(body, lb=0, ub="N-1"):
    """The reads ``body`` gets under ``t in 0..T-1``, ``i, j in lb..ub``."""
    b = ProgramBuilder("p", params=("T", "N"))
    with b.loop("t", 0, "T-1"):
        with b.loop("i", lb, ub):
            with b.loop("j", 0, "N-1"):
                return b.stmt(body).reads


class TestPeriodicSubscripts:
    """``(d + 1) % P`` / ``(d - 1) % P`` reads become guarded affine
    accesses, one per interior/wrap combination (Fig. 4a-b)."""

    def test_zero_shift_single_unguarded(self):
        accs = _reads("B[t][i][j] = A[t][i][j]")
        assert len(accs) == 1
        assert accs[0].guard is None

    def test_single_shift_two_cases(self):
        accs = _reads("B[t][i][j] = A[t][(i+1) % N][j]")
        assert len(accs) == 2
        interior = next(a for a in accs if a.guard.contains(
            {"t": 0, "i": 0, "j": 0, "T": 4, "N": 4}
        ))
        wrap = next(a for a in accs if a is not interior)
        # interior at i=0 reads i+1
        assert interior.map.apply({"t": 2, "i": 0, "j": 3, "T": 4, "N": 4}) == (2, 1, 3)
        # wrap applies only at i = N-1 and reads index 0
        assert wrap.guard.contains({"t": 0, "i": 3, "j": 0, "T": 4, "N": 4})
        assert not wrap.guard.contains({"t": 0, "i": 2, "j": 0, "T": 4, "N": 4})
        assert wrap.map.apply({"t": 2, "i": 3, "j": 1, "T": 4, "N": 4}) == (2, 0, 1)

    def test_negative_shift_wraps_to_top(self):
        accs = _reads("B[t][i][j] = A[t][(i-1) % N][j]")
        wrap = next(
            a for a in accs
            if a.guard.contains({"t": 0, "i": 0, "j": 0, "T": 4, "N": 4})
            and not a.guard.contains({"t": 0, "i": 1, "j": 0, "T": 4, "N": 4})
        )
        assert wrap.map.apply({"t": 1, "i": 0, "j": 2, "T": 4, "N": 4}) == (1, 3, 2)

    def test_diagonal_shift_four_cases(self):
        accs = _reads("B[t][i][j] = A[t][(i+1) % N][(j-1) % N]")
        assert len(accs) == 4

    def test_guards_partition_domain(self):
        """At every domain point exactly one guarded case applies."""
        accs = _reads("B[t][i][j] = A[t][(i+1) % N][(j+1) % N]")
        n = 4
        for i in range(n):
            for j in range(n):
                point = {"t": 0, "i": i, "j": j, "T": 3, "N": n}
                hits = [a for a in accs if a.guard is None or a.guard.contains(point)]
                assert len(hits) == 1, (i, j)

    def test_reads_stay_in_bounds(self):
        accs = _reads("B[t][i][j] = A[t][(i+1) % N][j]")
        n = 5
        for i in range(n):
            point = {"t": 0, "i": i, "j": 2, "T": 3, "N": n}
            acc = next(a for a in accs if a.guard is None or a.guard.contains(point))
            idx = acc.map.apply(point)
            assert 0 <= idx[1] < n

    def test_python_body_keeps_the_modulus(self):
        b = ProgramBuilder("p", params=("N",))
        with b.loop("i", 0, "N-1"):
            s = b.stmt("B[i] = A[(i+1) % N] + A[(i-1) % N]")
        assert s.body == "B[i] = A[(i+1) % N] + A[(i-1) % N]"

    @pytest.mark.parametrize("body, sub, bounds", [
        ("B[t][i][j] = A[t][(i+2) % N][j]", "(i+2) % N", {}),
        ("A[t][(i+1) % N][j] = B[t][i][j]", "(i+1) % N", {}),
        ("B[t][i][j] = A[t][(i+1) % T][j]", "(i+1) % T", {}),
        ("B[t][i][j] = A[t][(i+1) % N][j]", "(i+1) % N", {"ub": "N"}),
        ("B[t][i][j] = A[t][(i-1) % N][j]", "(i-1) % N", {"lb": -1}),
        ("B[t][i][j] = A[(t+1) % 2][i][j]", "(t+1) % 2", {}),
        ("B[(t+1) % 2][i][j] = A[t][i][j]", "(t+1) % 2", {}),
        ("B[t][i][j] = A[t][(N-1) % N][j]", "(N-1) % N", {}),
        ("B[t][i][j] = A[t][i % N][j]", "i % N", {}),
    ], ids=[
        "shift-2", "on-the-write", "modulus-not-the-extent", "domain-reaches-P",
        "domain-below-0", "constant-modulus", "two-plane-write", "not-an-iterator",
        "no-shift",
    ])
    def test_unprovable_modulus_refused(self, body, sub, bounds):
        with pytest.raises(BodySyntaxError, match=re.escape(repr(sub))):
            _reads(body, **bounds)


class TestToPython:
    def test_subscript_conversion(self, sp):
        py = to_python("A[i][j+1] = A[i][j] + B[j][i]", sp, ["A", "B"])
        assert py == "A[i, j+1] = A[i, j] + B[j, i]"

    def test_executes_on_numpy(self, sp):
        py = to_python("A[i][j] = B[j][i] + 1", sp, ["A", "B"])
        A, B = np.zeros((2, 2)), np.arange(4.0).reshape(2, 2)
        exec(py, {}, {"A": A, "B": B, "i": 0, "j": 1})
        assert A[0, 1] == B[1, 0] + 1

    def test_scalar_becomes_0d(self, sp):
        py = to_python("x = A[i][i] + alpha", sp, ["A"])
        assert py == "x[()] = A[i, i] + alpha[()]"
        x = np.zeros(())
        alpha = np.full((), 2.0)
        A = np.eye(3)
        exec(py, {}, {"x": x, "alpha": alpha, "A": A, "i": 1})
        assert x[()] == 3.0

    def test_compound_op(self, sp):
        py = to_python("A[i][j] += B[i][j]", sp, ["A", "B"])
        assert py == "A[i, j] += B[i, j]"

    def test_functions_preserved(self, sp):
        py = to_python("A[i][j] = sqrt(A[i][j])", sp, ["A"])
        assert "sqrt(A[i, j])" in py


class TestWrittenScalarStores:
    """A *written* scalar must become a 0-d subscript even when it is in
    the accessed-arrays list — a bare ``s = ...`` rebinds a local inside
    the exec'd kernel and the store never reaches ``arrays['s']``."""

    def test_written_scalar_rewritten_on_both_sides(self):
        sp = Space(("i",), ("N",))
        py = to_python("s = s + A[i] * B[i]", sp, ["A", "B", "s"])
        assert py == "s[()] = s[()] + A[i] * B[i]"

    def test_store_reaches_the_array(self):
        sp = Space(("i",), ("N",))
        py = to_python("s = s + A[i] * B[i]", sp, ["A", "B", "s"])
        s = np.zeros(())
        env = {"s": s, "A": np.ones(3), "B": np.ones(3), "i": 0}
        exec(py, {}, env)
        assert s[()] == 1.0

    def test_read_only_scalars_stay_bare(self):
        # historical spelling preserved: read-only scalars (alpha, beta in
        # the polybench kernels) keep their bare form, so cached bodies and
        # cache keys predating the fix are unchanged
        sp = Space(("i",), ("N",))
        py = to_python("C[i] = alpha * A[i]", sp, ["A", "C", "alpha"])
        assert py == "C[i] = alpha * A[i]"
