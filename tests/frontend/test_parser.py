"""Tests for the C-like loop-nest parser."""

import pytest

from repro.frontend import ParseError, parse_program

JACOBI_1D = """
for (t = 0; t < T; t++) {
    for (i = 1; i < N - 1; i++) {
        B[i] = 0.33333 * (A[i-1] + A[i] + A[i+1]);
    }
    for (i = 1; i < N - 1; i++) {
        A[i] = B[i];
    }
}
"""


class TestParser:
    def test_jacobi_structure(self):
        p = parse_program(JACOBI_1D, "jacobi-1d", params=("T", "N"))
        assert len(p) == 2
        s0, s1 = p.statements
        assert s0.iters == ("t", "i") and s1.iters == ("t", "i")
        # second space loop has beta 1 under the shared t loop
        assert s0.sched[2] == 0 and s1.sched[2] == 1

    def test_strict_bound_normalized(self):
        p = parse_program(JACOBI_1D, "jacobi-1d", params=("T", "N"))
        s0 = p.statements[0]
        # i < N - 1  ->  i <= N - 2
        assert not s0.domain.contains({"t": 0, "i": 7, "N": 8, "T": 2})
        assert s0.domain.contains({"t": 0, "i": 6, "N": 8, "T": 2})

    def test_accesses_extracted(self):
        p = parse_program(JACOBI_1D, "jacobi-1d", params=("T", "N"))
        s0 = p.statements[0]
        assert s0.write_arrays() == {"B"}
        assert s0.read_arrays() == {"A"}
        assert len(s0.reads) == 3

    def test_named_statements(self):
        src = "for (i = 0; i <= N-1; i++) { INIT: A[i] = 0; }"
        p = parse_program(src, "t", params=("N",))
        assert p.statements[0].name == "INIT"

    def test_if_condition(self):
        src = """
        for (i = 0; i <= N-1; i++)
            for (j = 0; j <= N-1; j++)
                if (j <= i)
                    A[i][j] = 1;
        """
        p = parse_program(src, "tri", params=("N",))
        d = p.statements[0].domain
        assert d.contains({"i": 3, "j": 3, "N": 5})
        assert not d.contains({"i": 2, "j": 3, "N": 5})

    def test_comments_stripped(self):
        src = """
        // outer loop
        for (i = 0; i <= N-1; i++) {
            A[i] = 0; /* init */
        }
        """
        p = parse_program(src, "c", params=("N",))
        assert len(p) == 1

    def test_braceless_nesting(self):
        src = "for (i = 0; i <= N-1; i++) for (j = 0; j <= i; j++) A[i][j] = 0;"
        p = parse_program(src, "nb", params=("N",))
        assert p.statements[0].iters == ("i", "j")

    def test_bad_increment_rejected(self):
        with pytest.raises(ParseError):
            parse_program("for (i = 0; i <= N; i--) A[i] = 0;", "x", params=("N",))

    def test_wrong_condition_var_rejected(self):
        with pytest.raises(ParseError):
            parse_program("for (i = 0; j <= N; i++) A[i] = 0;", "x", params=("N",))

    def test_unsupported_relation_rejected(self):
        with pytest.raises(ParseError):
            parse_program("for (i = N; i >= 0; i++) A[i] = 0;", "x", params=("N",))

    def test_triangular_bounds(self):
        src = "for (i = 0; i <= N-1; i++) for (j = i+1; j <= N-1; j++) A[i][j] = A[j][i];"
        p = parse_program(src, "tri", params=("N",))
        d = p.statements[0].domain
        assert d.contains({"i": 0, "j": 1, "N": 3})
        assert not d.contains({"i": 1, "j": 1, "N": 3})

    def test_float_literals(self):
        src = "for (i = 0; i <= N-1; i++) A[i] = 0.25 * B[i] + 1e-3;"
        p = parse_program(src, "f", params=("N",))
        assert "0.25" in p.statements[0].body

    def test_compound_assignment(self):
        src = "for (i = 0; i <= N-1; i++) x += A[i];"
        p = parse_program(src, "dot", params=("N",))
        s = p.statements[0]
        assert s.write_arrays() == {"x"}
        assert "x" in s.read_arrays() and "A" in s.read_arrays()


HEAT_1DP = """
for (t = 0; t < T; t++)
    for (i = 0; i < N; i++)
        A[t+1][i] = 0.125 * A[t][(i+1) % N] + 0.75 * A[t][i] + 0.125 * A[t][(i-1) % N];
"""


class TestPeriodicC:
    """heat-1dp written as C with ``% N`` reads is the registered program."""

    def _pair(self):
        from repro.workloads.periodic import heat_1dp

        parsed = parse_program(HEAT_1DP, "heat-1dp", params=("T", "N"), param_min=4)
        return parsed, heat_1dp()

    def test_same_program_up_to_body_spacing(self):
        from repro.frontend import program_to_dict

        parsed, registered = self._pair()
        a, b = program_to_dict(parsed), program_to_dict(registered)
        (sa,), (sb,) = a["statements"], b["statements"]
        assert "".join(sa.pop("body").split()) == "".join(sb.pop("body").split())
        assert a == b

    def test_same_c_kernel_under_iss_and_diamond(self):
        from repro import PipelineOptions, optimize
        from repro.codegen import generate_c_kernel

        opts = PipelineOptions(iss=True, diamond=True)
        parsed, registered = self._pair()
        assert (
            generate_c_kernel(optimize(parsed, opts).tiled).source
            == generate_c_kernel(optimize(registered, opts).tiled).source
        )
