"""Spanning in-forests with prescribed sink counts, and their optima.

A w-graph with m sinks assigns to each non-sink vertex exactly one of its
outgoing arcs so that no cycle forms; equivalently it is a spanning forest
of in-trees rooted at the m sinks.  Two routes to the optimal ones live
here.  The oracle is one exact enumeration for every sink count at once,
pruned by branch and bound on integer weights: it skips only partial
assignments whose every completion is strictly heavier than the best
w-graph found with its sink count, so it keeps every tied optimum, in
enumeration order.  It stays exponential and is capped at 9 states unless
the caller raises the cap.  The other route reads the optimum off a
completed symmetry-free sweep report by Edmonds' expansion: the first k(m)
transfers form the contracted in-forest the sweep held with m sinks, and
expanding its cycles drops one T-arc per cycle.  The report is replayed
once into O(n + K) integers.  Each sink count then takes one interpreted
step per cycle closed by step k(m), and C-level bulk operations over the
first k(m) transfers and the n - m kept arcs.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress
from typing import Callable, Mapping, Optional, Sequence

from .chain import (
    ChainGraph,
    EnumerationCapError,
    GraphError,
    InternalInvariantError,
    SymmetryError,
    state_key,
)
from .contraction import SuperVertex, find
from .graphio import format_rational, state_set_to_json, state_to_json

__all__ = [
    "WGraph",
    "enumerate_all_optimal",
    "extract_wgraph",
    "DEFAULT_ENUMERATION_CAP",
]

DEFAULT_ENUMERATION_CAP = 9


@dataclass(frozen=True)
class WGraph:
    """A spanning in-forest: arc pairs, its sinks, and its total weight."""

    vertices: tuple
    sinks: frozenset
    arcs: tuple
    total_weight: Fraction

    @property
    def m(self) -> int:
        return len(self.sinks)

    def to_json_dict(self) -> dict:
        return {
            "sinks": state_set_to_json(self.sinks),
            "arcs": [[state_to_json(t), state_to_json(h)] for (t, h) in self.arcs],
            "total_weight": format_rational(self.total_weight),
        }


def _make_wgraph(g: ChainGraph, vertices: tuple, chosen: Sequence, total: Fraction) -> WGraph:
    """The w-graph of an assignment.  Its arcs come in decision order, one
    per tail, so they are already sorted."""
    arcs = tuple(a.pair() for a in chosen)
    tails = {t for (t, _h) in arcs}
    sinks = frozenset(s for s in g.states if s not in tails)
    return WGraph(vertices=vertices, sinks=sinks, arcs=arcs, total_weight=total)


def _decision_order(g: ChainGraph) -> list:
    """The order in which ``_iter_assignments`` decides the vertices."""
    return sorted(g.states, key=state_key)


def _iter_assignments(
    g: ChainGraph,
    cap: int,
    weight: Optional[Mapping] = None,
    prune: Optional[Callable[[int, int, int], bool]] = None,
):
    """Yield every acyclic sink-or-arc assignment as (chosen arcs, total).

    The walk decides the vertices in ``_decision_order``, each first as a
    sink and then along its out-arcs in head order.  Cycles are pruned
    during construction by walking the partial successor map, so only
    genuine in-forests reach the caller.  ``chosen`` is the walk's own
    list: copy it to keep it.  ``total`` sums ``weight[pair]`` over the
    chosen arcs (0 without ``weight``).  Before the walk decides the i-th
    vertex it asks ``prune(i, arcs chosen so far, total)``; on True it
    skips every completion of the partial assignment.
    """
    if g.n > cap:
        raise EnumerationCapError(
            f"enumeration over {g.n} vertices exceeds the cap of {cap}; "
            "raise the cap explicitly if the blow-up is acceptable"
        )
    verts = _decision_order(g)
    n = len(verts)
    options = [
        [
            (a, weight[a.pair()] if weight is not None else 0)
            for a in sorted(g.out_arcs(v), key=lambda a: state_key(a.head))
        ]
        for v in verts
    ]
    succ: dict = {}
    chosen: list = []

    def rec(i: int, total: int):
        if i == n:
            yield chosen, total
            return
        if prune is not None and prune(i, len(chosen), total):
            return
        yield from rec(i + 1, total)  # verts[i] is a sink
        v = verts[i]
        for arc, w in options[i]:
            cur = arc.head
            while cur in succ:
                cur = succ[cur]
                if cur == v:
                    break  # the arc would close a cycle
            else:
                succ[v] = arc.head
                chosen.append(arc)
                yield from rec(i + 1, total + w)
                chosen.pop()
                del succ[v]

    yield from rec(0, 0)


def enumerate_all_optimal(g: ChainGraph, cap: int = DEFAULT_ENUMERATION_CAP) -> dict:
    """Minimum-weight w-graphs for every sink count in one pruned enumeration.

    Returns {m: (optima, unique)} where optima is a tuple of WGraphs tied
    at the minimum, in enumeration order, and unique says whether exactly
    one attains it.  Weights are compared as integers after clearing
    denominators, so ties are exact.  A partial assignment is abandoned only
    when, for every sink count its completions can still reach, even the
    lightest completion weighs more than the best w-graph found so far:
    completions that tie with the best are still visited, so every tied
    optimum is found and the result equals that of the full enumeration.
    """
    n = g.n
    scale, int_weight = g.integer_weights
    verts = _decision_order(g)
    least_out = {
        v: min(int_weight[a.pair()] for a in g.out_arcs(v)) for v in verts if g.out_arcs(v)
    }
    # least[i][k]: the k smallest least-out-arc weights among the vertices
    # still undecided at depth i, summed; a completion that adds k arcs
    # weighs at least that much more
    least = [
        list(accumulate(sorted(least_out[v] for v in verts[i:] if v in least_out), initial=0))
        for i in range(n + 1)
    ]
    # ceiling[m]: the heaviest total still worth visiting with m sinks, the
    # best found so far; before the first, more than any w-graph weighs, and
    # less than any weighs for m = 0 (no w-graph is sinkless)
    unbounded = sum(int_weight.values()) + 1
    ceiling = [unbounded if m else -1 for m in range(n + 1)]
    optima: dict = {}  # m -> assignments weighing ceiling[m]

    def hopeless(i: int, arcs: int, total: int) -> bool:
        m = n - arcs
        for extra in least[i]:  # a completion with m sinks
            if total + extra <= ceiling[m]:
                return False
            m -= 1
        return True

    for chosen, total in _iter_assignments(g, cap, int_weight, hopeless):
        m = n - len(chosen)
        if total < ceiling[m]:
            ceiling[m] = total
            optima[m] = [list(chosen)]
        elif total == ceiling[m]:
            optima[m].append(list(chosen))
    vertices = tuple(verts)
    result = {}
    for m, assignments in sorted(optima.items()):
        weight = Fraction(ceiling[m], scale)
        graphs = tuple(_make_wgraph(g, vertices, ch, weight) for ch in assignments)
        result[m] = (graphs, len(graphs) == 1)
    return result


class ForestExpansion:
    """A symmetry-free sweep report replayed once for in-forest extraction.

    Vertex ids: the states in state order are 0..n-1, and the report's i-th
    cycle is n + i.  The replay follows the transfers with a union-find
    over those ids and records, in O(n + K) integers,

    * ``parent[v]``: the cycle that absorbed vertex v, or -1;
    * ``out[v]``: the transfer index of v's own T-arc, the one it sent
      while it was a current vertex, or -1 if it sent none;
    * ``main[i]``: the rank of cycle i's main state;
    * per transfer its tail rank and original weight as an integer over
      ``scale``;
    * ``arcs``: the transfers' pairs in (tail, head) order, the order the
      extracted arcs are listed in, and ``position[i]``: transfer i's place
      there;
    * ``sinks``: the recorded sink sequence z*(1), s*(1), s*(2), ... as far
      as the sink counts 1, 2, ... are recorded without a gap, so the sinks
      of the m-sink forest are ``sinks[:m]``, and ``sink_ranks`` their ranks;
    * ``suffix[m]``: delta_m + ... + delta_(n-1) as an integer over
      ``scale``, for every m whose exponents the run has fixed.
    """

    __slots__ = (
        "states", "rank", "scale", "tails", "weights", "arcs", "position",
        "steps", "parent", "out", "main", "sinks", "sink_ranks", "suffix",
    )

    def __init__(self, report):
        g = report.graph
        self.states = tuple(_decision_order(g))
        rank = self.rank = {s: i for i, s in enumerate(self.states)}
        n = len(self.states)
        self.scale, int_weight = g.integer_weights
        pairs = [a.pair() for a in report.transfers]
        tails = self.tails = [rank[t] for (t, _h) in pairs]
        self.weights = [int_weight[p] for p in pairs]
        by_tail = sorted(range(len(pairs)), key=lambda i: (tails[i], rank[pairs[i][1]]))
        self.arcs = [pairs[i] for i in by_tail]
        self.position = sorted(range(len(pairs)), key=by_tail.__getitem__)
        cycles = report.cycles
        self.steps = [rec.step for rec in cycles]
        self.main = [rank[rec.main_state] for rec in cycles]
        vid = {rec.vertex: n + i for i, rec in enumerate(cycles)}
        parent = self.parent = [-1] * (n + len(cycles))
        out = self.out = [-1] * (n + len(cycles))
        if cycles and cycles[-1].step > len(tails):
            raise InternalInvariantError("a cycle closes after the last transfer")
        closing = {rec.step: rec for rec in cycles}
        up = list(range(n + len(cycles)))  # union-find: the current vertex of each id
        for i, t in enumerate(tails):
            t = find(up, t)
            if out[t] != -1:
                raise InternalInvariantError(f"vertex {t} sends two T-arcs")
            out[t] = i
            rec = closing.get(i + 1)
            if rec is not None:
                for v in rec.member_vids:
                    v = vid[v] if isinstance(v, SuperVertex) else rank[v]
                    parent[v] = up[v] = vid[rec.vertex]
        recorded = report.sinks
        run = 0
        while run + 1 in recorded:
            run += 1
        self.sinks = [recorded[j].s_star if j else recorded[1].z_star for j in range(run)]
        self.sink_ranks = [rank[s] for s in self.sinks]
        self.suffix = [None] * (n + 1)
        self.suffix[n] = total = 0
        for m in range(n - 1, 0, -1):
            d = report.delta[m - 1]
            if d is None:
                break
            if self.scale % d.denominator:
                raise InternalInvariantError(f"delta_{m} is off the weights' grid 1/{self.scale}")
            self.suffix[m] = total = total + d.numerator * (self.scale // d.denominator)

    def forest(self, m: int, k: int) -> tuple:
        """(arcs, integer total) of the optimal in-forest whose m sinks are
        ``sinks[:m]``, the roots of the contracted forest after step k = k(m)."""
        n = len(self.states)
        r = bisect_right(self.steps, k)  # cycles closed by step k
        if n - k + r != m:
            raise InternalInvariantError(f"{r} cycles by step {k} leave {n - k + r} sinks, not {m}")
        parent, out, tails, main = self.parent, self.out, self.tails, self.main
        # Outer cycles first: each cycle not yet resolved gets its root
        # point (the tail of its kept T-arc, or its main state when it sent
        # none by step k) and the T-arcs of every vertex between that point
        # and the cycle are dropped; those vertices hold their parents'
        # root points, so they are resolved too.
        keep = bytearray(b"\x01") * k  # keep[i]: transfer i stays in the forest
        resolved = bytearray(len(parent))
        for c in range(n + r - 1, n - 1, -1):
            if resolved[c]:
                continue
            o = out[c]
            x = tails[o] if 0 <= o < k else main[c - n]
            while x != c:
                o = out[x]
                if x < 0 or not 0 <= o < k:
                    raise InternalInvariantError(
                        f"root point of cycle {c - n + 1} lies outside it or sends no T-arc by step {k}"
                    )
                resolved[x] = 1
                keep[o] = 0
                x = parent[x]
        kept = list(compress(range(k), keep))
        covered = set(map(tails.__getitem__, kept))
        covered.update(self.sink_ranks[:m])
        if len(kept) != n - m or len(covered) != n:
            raise InternalInvariantError(
                f"expansion after step {k} gives {len(kept)} arcs, not {n - m}, or its "
                f"tails and the {m} sinks cover {len(covered)} of the {n} states"
            )
        total = sum(map(self.weights.__getitem__, kept))
        if total != self.suffix[m]:
            raise InternalInvariantError(
                f"the {m}-sink forest weighs {Fraction(total, self.scale)}, "
                f"not delta_{m} + ... + delta_{n - 1}"
            )
        order = sorted(map(self.position.__getitem__, kept))
        return tuple(map(self.arcs.__getitem__, order)), total


def extract_wgraph(report, m: int) -> WGraph:
    """Optimal w-graph with m sinks, read off a completed sweep report.

    The sinks are the recorded z*(1) together with s*(1..m-1).  The arcs
    come from Edmonds' expansion of the contracted forest the sweep holds
    after step k(m) (Edmonds 1967, "Optimum branchings", *J. Res. NBS*
    71B; Camerini, Fratta & Maffioli 1979, "A note on finding optimum
    branchings", *Networks* 9): start from the first k(m) transfers and,
    for every cycle closed by then, drop the T-arc of the member holding
    the cycle's root point.  A cycle's root point is the tail of its own
    T-arc when that arc is kept; a cycle that holds its outer cycle's root
    point loses its own T-arc and takes that point; a cycle that sent no
    T-arc by step k(m) takes its main state, a sink.  The report is
    replayed once (``ForestExpansion``, kept on the report).  Each m then
    walks the r cycles closed by step k(m) in Python, and masks the first
    k(m) transfers, checks coverage with one set and sorts the n - m kept
    arcs in C: O(r) interpreted steps and O(k(m) + n log n) native ones.
    Weights come from the original graph, summed as integers.  m is an int
    or anything ``operator.index`` takes, but not a bool.  Refuses reports
    with detected symmetry (optima need not be unique) and reports stopped
    before step k(m).
    """
    if report.symmetry_detected:
        raise SymmetryError(
            "weight ties detected at step "
            f"{report.symmetry_step} ({report.symmetry_kind}); "
            "extraction is only valid without ties"
        )
    n = report.graph.n
    try:
        count = 0 if isinstance(m, bool) else operator.index(m)
    except TypeError:
        count = 0
    if not (1 <= count <= n - 1):
        raise ValueError(f"sink count must lie in [1, {n - 1}], got {m}")
    m = count
    expansion = report.forest_expansion
    if m > len(expansion.sinks) or report.sinks[m].k > report.K:
        raise GraphError(
            f"report stopped too early to extract the {m}-sink optimum"
        )
    sinks = frozenset(expansion.sinks[:m])
    if len(sinks) != m:
        raise InternalInvariantError("recorded sinks are not pairwise distinct")
    arcs, total = expansion.forest(m, report.sinks[m].k)
    return WGraph(
        vertices=expansion.states,
        sinks=sinks,
        arcs=arcs,
        total_weight=Fraction(total, expansion.scale),
    )

