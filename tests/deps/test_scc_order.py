"""``DependenceGraph.sccs`` orders SCCs as the networkx pipeline it
replaced did (``tests/deps/reference_ddg.py``): the order is what the
scalar schedule rows of ``_cut`` and ``_cut_dim_based`` encode."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deps import DependenceGraph, compute_dependences
from repro.workloads import all_workloads

pytest.importorskip("networkx")
from tests.deps.reference_ddg import reference_sccs  # noqa: E402


def _edge(statements, source, target):
    return SimpleNamespace(source=statements[source], target=statements[target])


@st.composite
def ddgs(draw):
    """Up to 8 statements; edges may repeat, loop on a statement, and be
    satisfied or not: the graph and its unsatisfied edges."""
    n = draw(st.integers(1, 8))
    statements = [SimpleNamespace(name=f"S{i}") for i in range(n)]
    draw(st.randoms(use_true_random=False)).shuffle(statements)  # names out of order
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.booleans()),
        max_size=3 * n,
    ))
    deps = [_edge(statements, s, t) for s, t, _ in edges]
    unsatisfied = [d for d, (_, _, satisfied) in zip(deps, edges) if not satisfied]
    return DependenceGraph(SimpleNamespace(statements=statements), deps), unsatisfied


@settings(max_examples=400, deadline=None)
@given(ddgs(), st.booleans())
def test_sccs_match_the_networkx_pipeline(case, restrict):
    ddg, unsatisfied = case
    deps = unsatisfied if restrict else None
    assert ddg.sccs(deps) == reference_sccs(ddg, deps)


def test_sccs_match_on_every_workload():
    for workload in all_workloads():
        program = workload.program()
        ddg = DependenceGraph(program, compute_dependences(program))
        for deps in (None, ddg.deps[::2]):
            assert ddg.sccs(deps) == reference_sccs(ddg, deps), workload.name
