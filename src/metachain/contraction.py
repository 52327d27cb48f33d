"""Contraction machinery: the working multigraph both sweeps shrink.

Both sweeps shrink the graph with one move: they collapse a cycle or a
closed class into a super-vertex and reprice every arc leaving it as
``U_ij - U_min(i) + threshold``, Edmonds' reduced cost (Tarjan 1977,
*Finding optimum branchings*).  ``WorkingGraph`` is the one place that
makes that move, on integers: every exponent times the lcm of the chain's
denominators (``ChainGraph.integer_weights``); the sweeps turn what they
report back into Fractions.  An arc is its id p, its place in (tail, head)
state order (reversed for revlex), so parallel arcs to one current head
are all kept.  Each current vertex keeps its exit arcs in a heap of ints
``key * m + p`` with an additive offset, and a contraction adds
``threshold - U_min(i)`` to member i's offset and merges the smaller heaps
into the largest (Tarjan 1977; Gabow, Galil, Spencer & Tarjan 1986), so an
arc is repriced only when it is read.  The sweeps' buckets hold
``w * m + p`` too, so every order is by (weight, id).  Arcs inside a
contracted group, and arcs the sweeps have taken, are dropped when they
reach the top of a heap; a contraction is never undone.

A super-vertex is a ``SuperVertex`` handle, the index-th contraction of
a sweep, so it can never equal a state (an int or a str).  It holds the
vertices it joined and its least state, not its member set: on nested
chains those sets add up to O(n^2) states.  ``SuperVertex.states()``
expands one on demand, and its name, the sorted member list such as
"{1,2,3}", is built only for display and where ``vertex_order`` needs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping, Optional

from .chain import Arc, ChainGraph, GraphError, State, parse_rational, state_key, super_vertex_name

__all__ = [
    "SuperVertex",
    "WorkingGraph",
    "find",
    "updated_prefactor",
    "updated_weight",
    "vertex_order",
]


@dataclass(frozen=True, eq=False)
class SuperVertex:
    """Handle of the ``index``-th contraction of a sweep (1-based).

    A handle equals only itself.  ``parts`` are the vertices it joined
    (states or earlier handles) and ``least`` is its least state in state
    order.
    """

    index: int
    parts: tuple = field(repr=False)
    least: State

    def states(self) -> frozenset:
        """The original states it holds, expanded on each call."""
        out, stack = [], [self]
        while stack:
            for v in stack.pop().parts:
                (stack if isinstance(v, SuperVertex) else out).append(v)
        return frozenset(out)


def _name_key(v) -> tuple:
    """Sort key of a vertex by its full name; a state sorts just before a
    super-vertex of the same name."""
    if isinstance(v, SuperVertex):
        return (*state_key(super_vertex_name(v.states())), 1)
    return (*state_key(v), 0)


def vertex_order(vertices: Iterable) -> list:
    """Current vertices sorted by name: a state by ``state_key``, a
    super-vertex by its name (such as "{1,2,3}"), just after a state so named.

    A super-vertex's name begins with "{", its least state and a comma, and
    that prefix places it unless another name in the list starts with it;
    only such runs are sorted again by full names.
    """
    def prefix_key(v) -> tuple:
        if isinstance(v, SuperVertex):
            return (1, 0, "{" + str(v.least) + ",", 1)
        return (*state_key(v), 0)

    vertices = list(vertices)
    keys = sorted((prefix_key(v), i) for i, v in enumerate(vertices))
    out = [vertices[i] for _k, i in keys]
    # A name sorts after every name it starts with, so the names starting
    # with a run's prefix follow it directly, and every other name differs
    # from that prefix within its length and is placed by it.
    i = 0
    while i < len(out):
        j = i + 1
        if isinstance(out[i], SuperVertex):
            prefix = keys[i][0][2]
            while j < len(out) and keys[j][0][0] == 1 and keys[j][0][2].startswith(prefix):
                j += 1
            if j > i + 1:
                out[i:j] = sorted(out[i:j], key=_name_key)
        i = j
    return out


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
    or ``SuperVertex`` an id stands for; ``find(up, vid)`` is the current
    vertex holding the vertex ``vid``, and ``vertex_of(state)`` the one
    holding a state.
    up[vid]:    vid's parent in that union-find forest; a current vertex is
                its own parent.
    arcs[p]:    arc p of the chain; ids follow (tail, head) state order,
                reversed when ``revlex``, the one order among equal weights.
    kappa[p]:   arc p's prefactor in force.
    u_min[vid]: least weight of vid's arcs, as last read by ``min_arcs``
                or ``min_arc``.
    Heap entries are ``key * m + p``; an entry's in-force weight is
    ``key + offset[vid]``.
    """

    def __init__(self, g: ChainGraph, revlex: bool = False):
        self.scale, weight = g.integer_weights
        self.vertex: list = sorted(g.states, key=state_key)
        n = len(self.vertex)
        sid = self.sid = {s: i for i, s in enumerate(self.vertex)}
        arcs = self.arcs = sorted(g.arcs, key=lambda a: (sid[a.tail], sid[a.head]), reverse=revlex)
        m = self.m = max(len(arcs), 1)
        self._head = [sid[a.head] for a in arcs]
        self.kappa = [a.kappa for a in arcs]
        self._heap: list = [[] for _ in range(n)]
        for p, a in enumerate(arcs):
            self._heap[sid[a.tail]].append(weight[a.tail, a.head] * m + p)
        for h in self._heap:
            heapify(h)
        self._gone = bytearray(len(arcs))  # arcs the sweeps took
        self.up = list(range(n))
        self._least = list(range(n))  # vid -> its least state's id
        self._offset = [0] * n
        self.u_min: list = [None] * n

    def vertex_of(self, state: State) -> int:
        return find(self.up, self.sid[state])

    def _dead(self, vid: int, p: int) -> bool:
        return self._gone[p] or find(self.up, self._head[p]) == vid

    def min_arcs(self, vid: int) -> list:
        """The ids of ``vid``'s least-weight arcs, in id order.

        Records their weight as ``u_min[vid]``; a vertex without arcs gets
        an empty list and leaves ``u_min[vid]`` alone.
        """
        heap, m = self._heap[vid], self.m
        while heap and self._dead(vid, heap[0] % m):
            heappop(heap)
        if not heap:
            return []
        key, p = divmod(heap[0], m)
        self.u_min[vid] = key + self._offset[vid]
        group, todo = [p], [1, 2]  # entries below ``end`` form a subtree at the top
        end, size = (key + 1) * m, len(heap)
        while todo:
            j = todo.pop()
            if j < size and heap[j] < end:
                if not self._dead(vid, heap[j] % m):
                    group.append(heap[j] % m)
                todo += (2 * j + 1, 2 * j + 2)
        return sorted(group)

    def min_arc(self, vid: int) -> tuple:
        """``(p, tied)``: the first id of ``min_arcs(vid)``, and whether that
        list holds another; ``(None, False)`` for a vertex without arcs.
        Reads two heap entries, not the whole tied group."""
        heap, m = self._heap[vid], self.m
        while heap and self._dead(vid, heap[0] % m):
            heappop(heap)
        if not heap:
            return None, False
        top = heappop(heap)
        while heap and self._dead(vid, heap[0] % m):
            heappop(heap)
        key, p = divmod(top, m)
        tied = bool(heap) and heap[0] // m == key
        heappush(heap, top)
        self.u_min[vid] = key + self._offset[vid]
        return p, tied

    def transfer(self, p: int, weight: int) -> Arc:
        """Take arc ``p`` out of the graph and return it as an ``Arc`` whose
        weight is ``weight``, its in-force int, as a Fraction (the graph's
        own arc while its tail is uncontracted)."""
        self._gone[p] = 1
        a = self.arcs[p]
        t = self.sid[a.tail]
        if self.up[t] == t:
            return a
        return Arc(a.tail, a.head, Fraction(weight, self.scale), self.kappa[p])

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
        up, heaps, m = self.up, self._heap, self.m
        for v in group:
            if not (isinstance(v, int) and 0 <= v < len(up) and up[v] == v):
                raise GraphError(f"cannot contract missing vertex {v!r}")
        if kappa_last is not None:
            kappa = self.kappa
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
        least = min(self._least[v] for v in members)
        self._least.append(least)
        parts = tuple(self.vertex[v] for v in members)
        self.vertex.append(SuperVertex(sv - len(self.sid) + 1, parts, self.vertex[least]))
        return sv
