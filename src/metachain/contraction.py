"""Contraction machinery: the working multigraph both sweeps shrink.

Both sweeps shrink the graph with one move: they collapse a cycle or a
closed class into a super-vertex and reprice every arc leaving it as
``U_ij - U_min(i) + threshold``, Edmonds' reduced cost (Tarjan 1977,
*Finding optimum branchings*).  ``WorkingGraph`` is the one place that
makes that move.  Arcs never lose their original (tail, head) identity:
after a contraction the super-vertex owns its members' surviving outgoing
arcs keyed by that original pair, so parallel arcs to one current head are
all kept.  Arcs inside a contracted group are dropped from the view; the
sweeps keep what they need of them in their own transfer lists, so a
contraction is never undone.

A super-vertex is the frozenset of the original states it holds, so it
can never equal a state (an int or a str).  Its name, the sorted member
list such as "{1,2,3}", is built only for sort keys and for display.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .chain import Arc, ChainGraph, GraphError, State, parse_rational, state_key, super_vertex_name

__all__ = [
    "WorkingGraph",
    "super_vertex_key",
    "updated_prefactor",
    "updated_weight",
    "vertex_key",
]

Pair = Tuple[State, State]


def super_vertex_key(ordered_names: Iterable[str]) -> tuple:
    """Sort key of the super-vertex whose states, in state order, have
    these names.  A state named like a super-vertex sorts just before it."""
    return (*state_key("{" + ",".join(ordered_names) + "}"), 1)


def vertex_key(v) -> tuple:
    """Sort key of a current vertex: a state, or a super-vertex by its name."""
    if isinstance(v, frozenset):
        return (*state_key(super_vertex_name(v)), 1)
    return (*state_key(v), 0)


def updated_weight(u_ij, u_min_i, threshold) -> Fraction:
    """In-force weight of an arc leaving a freshly contracted group."""
    return parse_rational(u_ij) - parse_rational(u_min_i) + parse_rational(threshold)


def updated_prefactor(kappa_ij: float, kappa_min_i: float, kappa_last: float) -> float:
    """Prefactor of an arc leaving a freshly closed cycle."""
    return kappa_ij * kappa_last / kappa_min_i


class WorkingGraph:
    """Mutable contracted view over a ChainGraph.

    vertices: current vertices (original states or super-vertices).
    vertex_of[state]: current vertex owning an original state.
    out[vid]: outgoing arcs not yet transferred, keyed by original pair;
              each Arc carries its in-force (possibly updated) weight.
    u_min[vid]: least weight of vid's arcs, as last read by ``min_arcs``.
    rank[pair]: an int placing an original arc pair in (tail, head) state
                order, reversed when ``revlex``; the one order among arcs of
                equal weight.
    """

    def __init__(self, g: ChainGraph, revlex: bool = False):
        n = g.n
        place = {s: i for i, s in enumerate(sorted(g.states, key=state_key))}
        sign = -1 if revlex else 1
        self.rank: Dict[Pair, int] = {
            (a.tail, a.head): sign * (place[a.tail] * n + place[a.head]) for a in g.arcs
        }
        self.vertices: set = set(g.states)
        self.vertex_of: Dict = {s: s for s in g.states}
        self.out: Dict = {s: {} for s in g.states}
        self.u_min: Dict = {}
        for a in g.arcs:
            self.out[a.tail][a.pair()] = a

    def remove_arc(self, arc: Arc) -> None:
        del self.out[self.vertex_of[arc.tail]][arc.pair()]

    def min_arcs(self, vid) -> list:
        """The least-weight arcs of ``vid`` in rank order.

        Records their weight as ``u_min[vid]``; a vertex without arcs gets
        an empty list and no entry.
        """
        arcs = self.out[vid].values()
        if not arcs:
            return []
        w = self.u_min[vid] = min(a.weight for a in arcs)
        rank = self.rank
        return sorted((a for a in arcs if a.weight == w), key=lambda a: rank[a.tail, a.head])

    def contract(
        self,
        vids: Iterable,
        threshold: Fraction,
        kappa_min: Optional[Mapping] = None,
        kappa_last: Optional[float] = None,
    ) -> frozenset:
        """Collapse ``vids`` into one super-vertex and return it.

        Every exit arc (i inside -> j outside) gets weight
        ``U_ij - u_min[i] + threshold``; arcs inside the group are dropped.
        When the closing arc carries a prefactor ``kappa_last``, an exit
        arc's prefactor becomes ``kappa_ij * kappa_last / kappa_min[i]``;
        otherwise prefactors pass through.
        """
        group = set(vids)
        if len(group) < 2:
            raise GraphError("contraction needs at least two vertices")
        for v in group:
            if v not in self.vertices:
                raise GraphError(f"cannot contract missing vertex {v!r}")
        vertex_of = self.vertex_of
        out: Dict[Pair, Arc] = {}
        for v in group:
            for pair, a in self.out.pop(v).items():
                if vertex_of[a.head] in group:
                    continue
                w = updated_weight(a.weight, self.u_min[v], threshold)
                kappa = a.kappa
                if kappa_last is not None:
                    kappa = updated_prefactor(kappa, kappa_min[v], kappa_last)
                out[pair] = Arc(a.tail, a.head, w, kappa)
        sv = frozenset().union(*(v if isinstance(v, frozenset) else (v,) for v in group))
        self.vertices -= group
        self.vertices.add(sv)
        self.out[sv] = out
        for s in sv:
            vertex_of[s] = sv
        return sv
