"""Contraction machinery: the working multigraph the two sweeps shrink.

The sweep algorithms operate on a mutable view of the input graph in which
cycles (or closed classes) collapse into super-vertices.  Arcs never lose
their original (tail, head) identity: after a contraction the super-vertex
owns its members' surviving outgoing arcs keyed by that original pair, so
parallel arcs to one current head are all kept.  Arcs inside a contracted
group are dropped from the view; the sweeps keep what they need of them in
their own transfer lists, so a contraction is never undone.

Super-vertices are named by the sorted set of original states they contain,
e.g. "{1,2,3}", which makes every report deterministic and diff-friendly.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from .chain import Arc, ChainGraph, GraphError, State, state_key

__all__ = ["WorkingGraph", "super_vertex_name"]

Pair = Tuple[State, State]


def super_vertex_name(states: Iterable[State]) -> str:
    return "{" + ",".join(str(s) for s in sorted(states, key=state_key)) + "}"


class WorkingGraph:
    """Mutable contracted view over a ChainGraph.

    vertices: current vertex ids (original states or super-vertex names).
    members[vid]: original states inside vid.
    vertex_of[state]: current vid owning an original state.
    out[vid]: outgoing arcs not yet transferred, keyed by original pair;
              each Arc carries its in-force (possibly updated) weight.
    """

    def __init__(self, g: ChainGraph):
        self.vertices: set = set(g.states)
        self.members: Dict = {s: frozenset((s,)) for s in g.states}
        self.vertex_of: Dict = {s: s for s in g.states}
        self.out: Dict[State, Dict[Pair, Arc]] = {s: {} for s in g.states}
        for a in g.arcs:
            self.out[a.tail][a.pair()] = a

    def remove_arc(self, arc: Arc) -> None:
        del self.out[self.vertex_of[arc.tail]][arc.pair()]

    def split_outgoing(self, vids: Iterable[State]):
        """Partition the untransferred arcs of ``vids`` into (exit, intra)."""
        group = set(vids)
        exit_arcs: Dict[Pair, Arc] = {}
        intra: Dict[Pair, Arc] = {}
        for v in group:
            for pair, a in self.out[v].items():
                if self.vertex_of[a.head] in group:
                    intra[pair] = a
                else:
                    exit_arcs[pair] = a
        return exit_arcs, intra

    def contract(
        self,
        vids: Iterable[State],
        new_out: Optional[Mapping[Pair, Arc]] = None,
    ) -> str:
        """Collapse ``vids`` into one super-vertex and return its name.

        ``new_out`` supplies the super-vertex's outgoing arcs (typically the
        reweighted exit arcs); omitted, the exit arcs are kept verbatim.
        Intra-group arcs are dropped.
        """
        group = sorted(set(vids), key=state_key)
        if len(group) < 2:
            raise GraphError("contraction needs at least two vertices")
        for v in group:
            if v not in self.vertices:
                raise GraphError(f"cannot contract missing vertex {v!r}")
        if new_out is None:
            new_out, _ = self.split_outgoing(group)
        member_states = frozenset().union(*(self.members[v] for v in group))
        vid = super_vertex_name(member_states)
        if vid in self.vertices:
            raise GraphError(f"super-vertex {vid!r} already present")
        for v in group:
            self.vertices.discard(v)
            del self.out[v]
            del self.members[v]
        self.vertices.add(vid)
        self.members[vid] = member_states
        self.out[vid] = dict(new_out)
        for s in member_states:
            self.vertex_of[s] = vid
        return vid
