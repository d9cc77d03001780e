"""Tests for the loop-nest builder: domains, schedules, guards."""

import pytest

from repro.frontend import BodySyntaxError, ProgramBuilder, parse_condition
from repro.polyhedra import AffExpr, AffineMap, BasicSet, Space, eq, ineq


def build_gemm():
    b = ProgramBuilder("gemm", params=("NI", "NJ", "NK"))
    with b.loop("i", 0, "NI-1"):
        with b.loop("j", 0, "NJ-1"):
            b.stmt("C[i][j] = C[i][j] * beta")
            with b.loop("k", 0, "NK-1"):
                b.stmt("C[i][j] = C[i][j] + alpha * A[i][k] * B[k][j]")
    return b.build()


class TestBuilder:
    def test_gemm_shape(self):
        p = build_gemm()
        assert len(p) == 2
        s0, s1 = p.statements
        assert s0.iters == ("i", "j")
        assert s1.iters == ("i", "j", "k")

    def test_gemm_domains(self):
        p = build_gemm()
        s1 = p.statements[1]
        vals = {"i": 0, "j": 0, "k": 0, "NI": 2, "NJ": 2, "NK": 2}
        assert s1.domain.contains(vals)
        assert not s1.domain.contains({**vals, "k": 2})

    def test_gemm_schedules(self):
        p = build_gemm()
        s0, s1 = p.statements
        # S0: (0, i, 0, j, 0); S1: (0, i, 0, j, 1, k, 0)
        assert s0.sched[0] == 0 and s0.sched[2] == 0 and s0.sched[4] == 0
        assert s1.sched[4] == 1 and s1.sched[6] == 0
        assert isinstance(s0.sched[1], AffExpr)

    def test_gemm_accesses(self):
        p = build_gemm()
        s1 = p.statements[1]
        assert s1.write_arrays() == {"C"}
        assert s1.read_arrays() == {"C", "A", "B", "alpha"}

    def test_sequential_loops_get_distinct_beta(self):
        b = ProgramBuilder("two", params=("N",))
        with b.loop("i", 0, "N-1"):
            b.stmt("A[i] = 1")
        with b.loop("i", 0, "N-1"):
            b.stmt("B[i] = A[i]")
        p = b.build()
        assert p.statements[0].sched[0] == 0
        assert p.statements[1].sched[0] == 1

    def test_guard_restricts_domain(self):
        b = ProgramBuilder("tri", params=("N",))
        with b.loop("i", 0, "N-1"):
            with b.loop("j", 0, "N-1"):
                with b.guard("j <= i - 1"):
                    b.stmt("A[i][j] = 0")
        p = b.build()
        d = p.statements[0].domain
        assert d.contains({"i": 2, "j": 1, "N": 4})
        assert not d.contains({"i": 1, "j": 1, "N": 4})

    def test_guard_is_schedule_transparent(self):
        b = ProgramBuilder("g", params=("N",))
        with b.loop("i", 0, "N-1"):
            b.stmt("A[i] = 0")
            with b.guard("i >= 1"):
                b.stmt("B[i] = A[i]")
            b.stmt("C[i] = B[i]")
        p = b.build()
        betas = [s.sched[-1] for s in p.statements]
        assert betas == [0, 1, 2]

    def test_periodic_body_gives_guarded_reads(self):
        b = ProgramBuilder("periodic", params=("N",))
        with b.loop("i", 0, "N-1"):
            b.stmt("A2[i] = A[(i+1) % N]")
        (s,) = b.build().statements
        assert s.body == "A2[i] = A[(i+1) % N]"
        assert [w.guard for w in s.writes] == [None]
        interior, wrap = s.reads
        sp = s.space
        assert interior.guard == BasicSet(sp, [ineq(sp, {"i": -1, "N": 1}, -2)])
        assert wrap.guard == BasicSet(sp, [eq(sp, {"i": 1, "N": -1}, 1)])
        assert wrap.map == AffineMap.from_terms(sp, [({"i": 1, "N": -1}, 1)])

    @pytest.mark.parametrize("body", [
        "A[i] + B[i]",
        "A[(i+2) % N] = B[i]",
        "A[i] = B[(i+1) % 2]",
        "A[i] = B[(i+2) % N]",
        "A[i] = B[i*i]",
    ], ids=["no-assignment", "periodic-write", "constant-period", "shift-2",
            "non-affine"])
    def test_refused_body(self, body):
        b = ProgramBuilder("forms", params=("N",))
        with b.loop("i", 0, "N-1"):
            with pytest.raises(BodySyntaxError):
                b.stmt(body)
            b.stmt("A[i] = B[i]")
        # a refused call names and orders nothing
        (s,) = b.build().statements
        assert (s.name, s.sched[-1]) == ("S0", 0)
        assert s.body == "A[i] = B[i]"

    def test_unclosed_loop_rejected(self):
        b = ProgramBuilder("bad")
        cm = b.loop("i", 0, 10)
        cm.__enter__()
        with pytest.raises(RuntimeError):
            b.build()

    def test_duplicate_statement_names_rejected(self):
        b = ProgramBuilder("dup", params=("N",))
        with b.loop("i", 0, "N-1"):
            b.stmt("A[i] = 0", name="S")
            with pytest.raises(ValueError):
                b.stmt("B[i] = 0", name="S")


class TestParseCondition:
    def test_operators(self):
        sp = Space(("i", "j"), ("N",))
        for text, point, ok in [
            ("i <= j", {"i": 1, "j": 2, "N": 4}, True),
            ("i < j", {"i": 2, "j": 2, "N": 4}, False),
            ("i >= j", {"i": 2, "j": 2, "N": 4}, True),
            ("i > j", {"i": 2, "j": 2, "N": 4}, False),
            ("i == j", {"i": 2, "j": 2, "N": 4}, True),
        ]:
            (con,) = parse_condition(sp, text)
            assert con.is_satisfied(point) is ok, text

    def test_conjunction(self):
        sp = Space(("i",), ("N",))
        cons = parse_condition(sp, "i >= 1 && i <= N - 2")
        assert len(cons) == 2

    def test_missing_operator_raises(self):
        sp = Space(("i",), ())
        with pytest.raises(ValueError):
            parse_condition(sp, "i + 1")
