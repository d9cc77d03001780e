"""Tests for the dependence graph and SCC machinery."""

from repro.deps import DependenceGraph, compute_dependences
from repro.deps.ordering import Ordering
from repro.frontend import parse_program


def make_ddg(src, params=("N",), param_min=3):
    p = parse_program(src, "p", params=params, param_min=param_min)
    return DependenceGraph(p, compute_dependences(p))


PIPELINE = """
for (i = 0; i < N; i++)
    B[i] = 2.0 * A[i];
for (i = 0; i < N; i++)
    C[i] = 3.0 * B[i];
for (i = 0; i < N; i++)
    D[i] = C[i] + B[i];
"""

CYCLE = """
for (t = 0; t < T; t++) {
    for (i = 1; i < N-1; i++)
        B[i] = 0.5 * (A[i-1] + A[i+1]);
    for (i = 1; i < N-1; i++)
        A[i] = B[i];
}
"""


class TestDDG:
    def test_pipeline_sccs_are_singletons_in_order(self):
        ddg = make_ddg(PIPELINE)
        sccs = ddg.sccs()
        assert [[s.name for s in scc] for scc in sccs] == [["S0"], ["S1"], ["S2"]]

    def test_cycle_detected(self):
        ddg = make_ddg(CYCLE, params=("T", "N"), param_min=4)
        sccs = ddg.sccs()
        assert len(sccs) == 1
        assert {s.name for s in sccs[0]} == {"S0", "S1"}

    def test_unsatisfied_initially_all(self):
        ddg = make_ddg(PIPELINE)
        assert Ordering(ddg.deps).unsatisfied() == ddg.deps

    def test_mark_cut_satisfied(self):
        ddg = make_ddg(PIPELINE)
        sccs = ddg.sccs()
        index = {}
        for pos, scc in enumerate(sccs):
            for s in scc:
                index[s.name] = pos
        order = Ordering(ddg.deps)
        n = order.cut(index)
        assert n == len(ddg.deps)  # all edges cross SCC boundaries here
        assert order.unsatisfied() == []

    def test_satisfied_edges_release_scc(self):
        ddg = make_ddg(CYCLE, params=("T", "N"), param_min=4)
        order = Ordering(ddg.deps)
        for d in ddg.deps:
            order.level[id(d)] = 0
        sccs = ddg.sccs(order.unsatisfied())
        assert len(sccs) == 2  # cycle broken once edges are satisfied

    def test_str(self):
        ddg = make_ddg(PIPELINE)
        assert "stmts" in str(ddg)
