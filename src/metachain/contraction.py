"""Contraction machinery: the working multigraph both sweeps shrink.

Both sweeps shrink the graph with one move: they collapse a cycle or a
closed class into a super-vertex and reprice every arc leaving it as
``U_ij - U_min(i) + threshold``, Edmonds' reduced cost (Tarjan 1977,
*Finding optimum branchings*).  ``WorkingGraph`` is the one place that
makes that move, on integers: every exponent times the lcm of the chain's
denominators (``ChainGraph.integer_weights``); the sweeps turn what they
report back into Fractions.  Arcs never lose their original (tail, head)
identity, so parallel arcs to one current head are all kept.  Each current
vertex keeps its exit arcs in a heap with an additive offset, and a
contraction adds ``threshold - U_min(i)`` to member i's offset and merges
the smaller heaps into the largest (Tarjan 1977; Gabow, Galil, Spencer &
Tarjan 1986), so an arc is repriced only when it is read.  Arcs inside a
contracted group, and arcs the sweeps have taken, are dropped when they
reach the top of a heap; a contraction is never undone.

A super-vertex is the frozenset of the original states it holds, so it
can never equal a state (an int or a str).  Its name, the sorted member
list such as "{1,2,3}", is built only for sort keys and for display.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .chain import Arc, ChainGraph, GraphError, State, parse_rational, state_key, super_vertex_name

__all__ = [
    "WorkingGraph",
    "find",
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


def find(up: list, x: int) -> int:
    """The root of ``x`` in the union-find forest ``up``, halving the path."""
    while up[x] != x:
        up[x] = x = up[up[x]]
    return x


class WorkingGraph:
    """Mutable contracted view over a ChainGraph, weights as ints over ``scale``.

    A current vertex is an int id: the states in state order are 0..n-1,
    and each contraction makes the next id.  ``vertex[vid]`` is the state
    or super-vertex an id stands for; ``vertex_of(state)`` is a union-find
    lookup of the current vertex that holds a state.
    rank[pair]: position of an arc pair in (tail, head) state order,
                reversed when ``revlex``; the one order among equal weights.
    u_min[vid]: least weight of vid's arcs, as last read by ``min_arcs``.
    Heap entries are ``key * m + rank`` (m arcs); an entry's in-force
    weight is ``key + offset[vid]``.
    """

    def __init__(self, g: ChainGraph, revlex: bool = False):
        self.scale, weight = g.integer_weights
        self.vertex: list = sorted(g.states, key=state_key)
        n = len(self.vertex)
        sid = self.sid = {s: i for i, s in enumerate(self.vertex)}
        arcs = self._arcs = sorted(g.arcs, key=lambda a: (sid[a.tail], sid[a.head]), reverse=revlex)
        m = self._m = max(len(arcs), 1)
        self.rank: Dict[Pair, int] = {a.pair(): p for p, a in enumerate(arcs)}
        self._head = [sid[a.head] for a in arcs]
        self._kappa = [a.kappa for a in arcs]
        self._heap: list = [[] for _ in range(n)]
        for p, a in enumerate(arcs):
            self._heap[sid[a.tail]].append(weight[a.tail, a.head] * m + p)
        for h in self._heap:
            heapify(h)
        self._gone = bytearray(len(arcs))  # arcs the sweeps took
        self._up = list(range(n))
        self._offset = [0] * n
        self.u_min: list = [None] * n

    def vertex_of(self, state: State) -> int:
        return find(self._up, self.sid[state])

    def _dead(self, vid: int, p: int) -> bool:
        return self._gone[p] or find(self._up, self._head[p]) == vid

    def min_arcs(self, vid: int) -> list:
        """The least-weight arcs of ``vid`` in rank order, weights as ints.

        Records their weight as ``u_min[vid]``; a vertex without arcs gets
        an empty list and leaves ``u_min[vid]`` alone.
        """
        heap, m = self._heap[vid], self._m
        while heap and self._dead(vid, heap[0] % m):
            heappop(heap)
        if not heap:
            return []
        key, p = divmod(heap[0], m)
        w = self.u_min[vid] = key + self._offset[vid]
        group, todo = [p], [1, 2]  # entries below ``end`` form a subtree at the top
        end, size = (key + 1) * m, len(heap)
        while todo:
            j = todo.pop()
            if j < size and heap[j] < end:
                if not self._dead(vid, heap[j] % m):
                    group.append(heap[j] % m)
                todo += (2 * j + 1, 2 * j + 2)
        arcs, kappa = self._arcs, self._kappa
        return [Arc(arcs[p].tail, arcs[p].head, w, kappa[p]) for p in sorted(group)]

    def transfer(self, arc: Arc) -> Arc:
        """Take an arc ``min_arcs`` gave out of the graph and return it with a
        Fraction weight (the graph's own arc while its tail is uncontracted)."""
        p = self.rank[arc.tail, arc.head]
        self._gone[p] = 1
        t = self.sid[arc.tail]
        if self._up[t] == t:
            return self._arcs[p]
        return Arc(arc.tail, arc.head, Fraction(arc.weight, self.scale), arc.kappa)

    def contract(
        self,
        vids: Iterable[int],
        threshold: int,
        kappa_min: Optional[Mapping] = None,
        kappa_last: Optional[float] = None,
    ) -> int:
        """Collapse the current vertices ``vids`` into one and return its id.

        Every exit arc (i inside -> j outside) gets weight
        ``U_ij - u_min[i] + threshold``; arcs inside the group are dropped.
        When the closing arc carries a prefactor ``kappa_last``, every exit
        arc's prefactor becomes ``kappa_ij * kappa_last / kappa_min[i]`` at
        once; otherwise prefactors pass through.
        """
        group = set(vids)
        if len(group) < 2:
            raise GraphError("contraction needs at least two vertices")
        up, heaps, m = self._up, self._heap, self._m
        for v in group:
            if not (isinstance(v, int) and 0 <= v < len(up) and up[v] == v):
                raise GraphError(f"cannot contract missing vertex {v!r}")
        if kappa_last is not None:
            kappa = self._kappa
            for v in group:
                for p in (e % m for e in heaps[v]):
                    kappa[p] = updated_prefactor(kappa[p], kappa_min[v], kappa_last)
        sv = len(up)
        up.append(sv)
        for v in group:
            up[v] = sv
        # the largest heap absorbs the others, re-keyed to its offset
        members = sorted(group, key=lambda v: len(heaps[v]))
        shift = {v: self._offset[v] + threshold - self.u_min[v] for v in members if heaps[v]}
        heap, base = heaps[members[-1]], shift.get(members[-1], 0)
        for v in members[:-1]:
            for e in heaps[v]:
                if not self._dead(sv, e % m):
                    heappush(heap, e + (shift[v] - base) * m)
        for v in members:
            heaps[v] = None
        heaps.append(heap)
        self._offset.append(base)
        self.u_min.append(None)
        parts = (self.vertex[v] for v in members)
        self.vertex.append(frozenset().union(*(x if isinstance(x, frozenset) else {x} for x in parts)))
        return sv
