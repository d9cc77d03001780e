"""The SCC order ``DependenceGraph.sccs`` computed through networkx until
v1.23.0, kept as the reference for ``tests/deps/test_scc_order.py``:
``strongly_connected_components`` -> ``condensation`` -> ``topological_sort``
over a multigraph of the given (by default all) dependences, each SCC's
statements in program order."""

import networkx as nx


def reference_sccs(ddg, deps=None):
    statements = ddg.program.statements
    g = nx.MultiDiGraph()
    g.add_nodes_from(s.name for s in statements)
    for d in ddg.deps if deps is None else deps:
        g.add_edge(d.source.name, d.target.name)
    comp = list(nx.strongly_connected_components(g))
    cond = nx.condensation(g, comp)
    name_to_stmt = {s.name: s for s in statements}
    out = []
    for idx in nx.topological_sort(cond):
        members = sorted(
            cond.nodes[idx]["members"],
            key=lambda n: statements.index(name_to_stmt[n]),
        )
        out.append([name_to_stmt[n] for n in members])
    return out
