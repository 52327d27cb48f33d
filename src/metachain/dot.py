"""Graphviz DOT text export for chain graphs and transition graphs.

Arc labels carry the exact rational weight string so an export can be
re-parsed without loss.  Closed classes render as clusters with a fill of
their own, and absorbing states get another.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .chain import ChainGraph, State, state_key
from .graphio import format_rational

__all__ = ["export_dot"]

CLOSED_FILL = "lightskyblue"
ABSORBING_FILL = "lightsalmon"


def _quote(text: str) -> str:
    return '"' + str(text).replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(
    graph,
    *,
    closed_classes: Optional[Sequence[Iterable[State]]] = None,
    absorbing: Optional[Iterable[State]] = None,
) -> str:
    """Render a ChainGraph or TGraph (anything with .arcs) to DOT text."""
    if isinstance(graph, ChainGraph):
        states = graph.states
        arcs = graph.arcs
    else:
        states = tuple(graph.vertices)
        arcs = tuple(graph.arcs)
    states = tuple(sorted(states, key=state_key))
    node_id = {s: f"n{i}" for i, s in enumerate(states)}
    absorbing_set = set(absorbing or ())

    def node(s: State, fill: Optional[str]) -> str:
        attrs = [f"label={_quote(s)}"]
        if s in absorbing_set:
            fill = ABSORBING_FILL
        if fill:
            attrs += ["style=filled", f"fillcolor={fill}"]
        return f"{node_id[s]} [{', '.join(attrs)}];"

    lines = ['digraph "chain" {', "  rankdir=LR;", "  node [shape=circle];"]
    clustered: set = set()
    for i, group in enumerate(closed_classes or ()):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append("    style=rounded;")
        for s in sorted(group, key=state_key):
            lines.append(f"    {node(s, CLOSED_FILL)}")
            clustered.add(s)
        lines.append("  }")
    for s in states:
        if s not in clustered:
            lines.append(f"  {node(s, None)}")

    for a in sorted(arcs, key=lambda a: (state_key(a.tail), state_key(a.head))):
        attrs = [f"label={_quote(format_rational(a.weight))}"]
        if a.kappa is not None:
            attrs.append(f"taillabel={_quote(repr(a.kappa))}")
        lines.append(f"  {node_id[a.tail]} -> {node_id[a.head]} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
