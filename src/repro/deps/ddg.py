"""The data dependence graph and its strongly connected components.

The scheduler's fusion/cutting logic (Pluto's ``smartfuse``) operates on the
DDG condensation: statements in one SCC must share hyperplanes, while edges
between different SCCs can be satisfied "for free" by a scalar schedule
dimension that orders the SCCs.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.deps.analysis import Dependence, DepStats
from repro.frontend.ir import Program, Statement

__all__ = ["DependenceGraph"]


class DependenceGraph:
    """DDG over statements with dependence-labelled edges.

    ``stats`` (optional) carries the :class:`DepStats` record of the analysis
    that produced ``deps``, so downstream reporting can show the fast-path
    counters next to the graph.
    """

    def __init__(
        self,
        program: Program,
        deps: Sequence[Dependence],
        stats: Optional[DepStats] = None,
    ):
        self.program = program
        self.deps = list(deps)
        self.dep_stats = stats
        #: the Farkas legality and bounding rows of each dependence, by
        #: ``id``: filled by the schedulers (``PlutoScheduler._farkas``) and
        #: shared by every scheduler run over this graph — a diamond attempt,
        #: its fallback, a quick attempt.  The rows are tuples, never mutated.
        self.farkas: dict[int, tuple[tuple, tuple]] = {}

    # -- queries -------------------------------------------------------------

    def sccs(
        self, deps: Optional[Iterable[Dependence]] = None
    ) -> list[list[Statement]]:
        """SCCs in a stable topological order of the condensation, each
        SCC's statements in program order.

        Only the edges of ``deps`` (default: every dependence) contribute to
        connectivity — the scheduler passes the ones not satisfied yet, since
        satisfied edges no longer force statements to stay fused.
        """
        statements = self.program.statements
        index = {s.name: i for i, s in enumerate(statements)}
        succ: list[dict[int, None]] = [{} for _ in statements]
        for d in self.deps if deps is None else deps:
            succ[index[d.source.name]][index[d.target.name]] = None
        return [
            [statements[i] for i in sorted(comp)]
            for comp in _condensation_order([list(s) for s in succ])
        ]

    def __len__(self) -> int:
        return len(self.deps)

    def __str__(self) -> str:
        return f"DDG({len(self.program.statements)} stmts, {len(self.deps)} deps)"


def _condensation_order(succ: list[list[int]]) -> list[list[int]]:
    """The strongly connected components of the graph ``v -> succ[v]``
    (successors in first-edge order), in a topological order of the
    condensation.

    The order is the one the scalar dimensions of the schedule encode, so it
    is pinned: networkx's ``strongly_connected_components`` -> ``condensation``
    -> ``topological_sort``, which this reproduces without the dependency.
    Components are numbered as an iterative Tarjan (Nuutila's variant) emits
    them, visiting sources and successors in order; the condensation's edges
    follow the first edge between two components in source order; the
    components come out in Kahn generations, each in the order its members
    became sources.
    """
    preorder: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    comp_of: dict[int, int] = {}
    comps: list[list[int]] = []
    stack: list[int] = []
    pending = [iter(s) for s in succ]
    for source in range(len(succ)):
        if source in comp_of:
            continue
        path = [source]
        while path:
            v = path[-1]
            preorder.setdefault(v, len(preorder))
            w = next((w for w in pending[v] if w not in preorder), None)
            if w is not None:
                path.append(w)
                continue
            path.pop()
            lowlink[v] = min(
                [preorder[v]]
                + [lowlink[w] if preorder[w] > preorder[v] else preorder[w]
                   for w in succ[v] if w not in comp_of]
            )
            if lowlink[v] < preorder[v]:
                stack.append(v)
                continue
            comp = [v]
            while stack and preorder[stack[-1]] > preorder[v]:
                comp.append(stack.pop())
            comp_of.update((u, len(comps)) for u in comp)
            comps.append(comp)

    edges: list[dict[int, None]] = [{} for _ in comps]
    for v, targets in enumerate(succ):
        for w in targets:
            if comp_of[v] != comp_of[w]:
                edges[comp_of[v]][comp_of[w]] = None
    indegree = [0] * len(comps)
    for targets in edges:
        for c in targets:
            indegree[c] += 1
    order = [c for c, d in enumerate(indegree) if d == 0]
    for c in order:  # grows as components become sources: Kahn's generations
        for t in edges[c]:
            indegree[t] -= 1
            if indegree[t] == 0:
                order.append(t)
    return [comps[c] for c in order]
