"""Graphviz (DOT) rendering of dependence graphs.

Handy for inspecting why a fusion/cut decision happened or which wraparound
arcs block tiling: statements become nodes (colored by SCC), dependences
become edges labeled with kind and distance vector (when uniform).

    python -c "from repro.deps.dot import ddg_to_dot; ..." | dot -Tpdf ...
"""

from __future__ import annotations

from repro.deps.ddg import DependenceGraph

__all__ = ["ddg_to_dot"]

_KIND_STYLE = {
    "raw": ("solid", "black"),
    "war": ("dashed", "blue"),
    "waw": ("dotted", "red"),
}

_SCC_COLORS = (
    "lightblue", "lightyellow", "lightpink", "lightgreen",
    "lavender", "mistyrose", "honeydew", "aliceblue",
)


def ddg_to_dot(ddg: DependenceGraph, include_distances: bool = True) -> str:
    """Render the DDG as DOT text."""
    lines = [
        "digraph ddg {",
        "  rankdir=TB;",
        '  node [shape=box, style=filled, fontname="monospace"];',
    ]
    scc_of: dict[str, int] = {}
    for idx, scc in enumerate(ddg.sccs()):
        for stmt in scc:
            scc_of[stmt.name] = idx
    for stmt in ddg.program.statements:
        color = _SCC_COLORS[scc_of.get(stmt.name, 0) % len(_SCC_COLORS)]
        label = f"{stmt.name}\\n{', '.join(stmt.space.dims)}"
        lines.append(f'  "{stmt.name}" [label="{label}", fillcolor={color}];')
    for dep in ddg.deps:
        style, color = _KIND_STYLE.get(dep.kind, ("solid", "gray"))
        label = dep.kind.upper()
        if include_distances:
            vec = dep.distance_vector()
            label += f" {vec}" if vec is not None else " (*)"
        lines.append(
            f'  "{dep.source.name}" -> "{dep.target.name}" '
            f'[label="{label}", style={style}, color={color}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
