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


def _edge(statements, source, target, satisfied):
    return SimpleNamespace(
        source=statements[source], target=statements[target], is_satisfied=satisfied
    )


@st.composite
def ddgs(draw):
    """Up to 8 statements; edges may repeat, loop on a statement, and be
    satisfied or not."""
    n = draw(st.integers(1, 8))
    statements = [SimpleNamespace(name=f"S{i}") for i in range(n)]
    draw(st.randoms(use_true_random=False)).shuffle(statements)  # names out of order
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.booleans()),
        max_size=3 * n,
    ))
    deps = [_edge(statements, *e) for e in edges]
    return DependenceGraph(SimpleNamespace(statements=statements), deps)


@settings(max_examples=400, deadline=None)
@given(ddgs(), st.booleans())
def test_sccs_match_the_networkx_pipeline(ddg, restrict):
    assert ddg.sccs(restrict) == reference_sccs(ddg, restrict)


def test_sccs_match_on_every_workload():
    for workload in all_workloads():
        program = workload.program()
        ddg = DependenceGraph(program, compute_dependences(program))
        for restrict in (True, False):
            assert ddg.sccs(restrict) == reference_sccs(ddg, restrict), workload.name
