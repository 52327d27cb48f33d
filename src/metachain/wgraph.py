"""Spanning in-forests with prescribed sink counts, and their optima.

A w-graph with m sinks assigns to each non-sink vertex exactly one of its
outgoing arcs so that no cycle forms; equivalently it is a spanning forest
of in-trees rooted at the m sinks.  Two routes to the optimal ones live
here.  The oracle is an exact enumeration, pruned by branch and bound on
integer weights: it skips only partial assignments whose every completion
is strictly heavier than the best w-graph found, so it keeps every tied
optimum, in enumeration order.  It stays exponential and is capped at 9
states unless the caller raises the cap.  The other route is linear-time
extraction from a completed sweep report, which walks the k(m)-th
transition graph backwards from the known sinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .chain import (
    ChainGraph,
    EnumerationCapError,
    GraphError,
    InternalInvariantError,
    SymmetryError,
    state_key,
)
from .graphio import format_rational, state_to_json

__all__ = [
    "WGraph",
    "enumerate_wgraphs",
    "enumerate_optimal",
    "enumerate_all_optimal",
    "extract_wgraph",
    "weak_nested_violations",
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

    def successor_map(self) -> dict:
        return {t: h for (t, h) in self.arcs}

    def to_json_dict(self) -> dict:
        return {
            "sinks": sorted((state_to_json(s) for s in self.sinks), key=str),
            "arcs": [[state_to_json(t), state_to_json(h)] for (t, h) in self.arcs],
            "total_weight": format_rational(self.total_weight),
        }


def _sorted_pairs(pairs: Iterable) -> tuple:
    return tuple(sorted(pairs, key=lambda p: (state_key(p[0]), state_key(p[1]))))


def _integer_weights(g: ChainGraph) -> tuple:
    """The arc weights over their common denominator: (scale, {pair: int})."""
    scale = lcm(*(a.weight.denominator for a in g.arcs)) if g.arcs else 1
    return scale, {a.pair(): int(a.weight * scale) for a in g.arcs}


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


def enumerate_wgraphs(g: ChainGraph, m: int, cap: int = DEFAULT_ENUMERATION_CAP):
    """Yield every w-graph of g with exactly m sinks (brute force)."""
    if not (1 <= m <= g.n):
        raise ValueError(f"sink count must lie in [1, {g.n}], got {m}")
    target_arcs = g.n - m
    scale, int_weight = _integer_weights(g)
    vertices = tuple(_decision_order(g))
    for chosen, total in _iter_assignments(g, cap, int_weight):
        if len(chosen) == target_arcs:
            yield _make_wgraph(g, vertices, chosen, Fraction(total, scale))


def enumerate_optimal(
    g: ChainGraph, m: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple:
    """All minimum-weight w-graphs with m sinks, plus a uniqueness flag."""
    per_m = enumerate_all_optimal(g, cap=cap, only_m=m)
    if m not in per_m:
        raise GraphError(f"graph admits no w-graph with {m} sinks")
    return per_m[m]


def enumerate_all_optimal(
    g: ChainGraph, cap: int = DEFAULT_ENUMERATION_CAP, only_m: Optional[int] = None
) -> dict:
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
    scale, int_weight = _integer_weights(g)
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
    # less than any weighs for m = 0 (no w-graph is sinkless) or for a sink
    # count other than only_m
    unbounded = sum(int_weight.values()) + 1
    ceiling = [unbounded if m and only_m in (None, m) else -1 for m in range(n + 1)]
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


def extract_wgraph(report, m: int) -> WGraph:
    """Optimal w-graph with m sinks, read off a completed sweep report.

    Sinks are the recorded z*(1) together with s*(1..m-1); the arcs are
    found by tracing the k(m)-th transition graph backwards from the sinks,
    visiting each vertex once.  Weights come from the original graph.
    Refuses reports with detected symmetry (optima need not be unique) and
    reports stopped before step k(m).
    """
    if report.symmetry_detected:
        raise SymmetryError(
            "weight ties detected at step "
            f"{report.symmetry_step} ({report.symmetry_kind}); "
            "extraction is only valid without ties"
        )
    g = report.graph
    n = g.n
    if not (1 <= m <= n - 1):
        raise ValueError(f"sink count must lie in [1, {n - 1}], got {m}")
    needed = set(range(1, m + 1))
    missing = [j for j in sorted(needed) if j not in report.sinks]
    if missing or report.sinks[m].k >= len(report.tgraphs):
        raise GraphError(
            f"report stopped too early to extract the {m}-sink optimum"
        )
    rec_m = report.sinks[m]
    tgraph = report.tgraphs[rec_m.k]
    sink_list = [report.sinks[1].z_star] + [report.sinks[j].s_star for j in range(1, m)]
    if len(set(sink_list)) != m:
        raise InternalInvariantError("recorded sinks are not pairwise distinct")

    incoming: dict = {}
    for a in tgraph.arcs:
        incoming.setdefault(a.head, []).append(a)
    for heads in incoming.values():
        if len(heads) > 1:
            heads.sort(key=lambda a: state_key(a.tail))

    visited = set(sink_list)
    order = list(sink_list)  # breadth-first: grows while it is walked
    chosen_pairs: list = []
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for a in incoming.get(v, ()):
            if a.tail in visited:
                continue
            visited.add(a.tail)
            chosen_pairs.append(a.pair())
            order.append(a.tail)
    if len(chosen_pairs) != n - m or len(visited) != n:
        raise InternalInvariantError(
            f"backward trace covered {len(visited)} of {n} vertices "
            f"with {len(chosen_pairs)} arcs"
        )
    total = sum((g.arc_map[p].weight for p in chosen_pairs), Fraction(0))
    return WGraph(
        vertices=tuple(sorted(g.states, key=state_key)),
        sinks=frozenset(sink_list),
        arcs=_sorted_pairs(chosen_pairs),
        total_weight=total,
    )


def weak_nested_violations(fine: WGraph, coarse: WGraph) -> list:
    """Check the weak nesting relation between consecutive optima.

    ``fine`` has m sinks and ``coarse`` m+1; returns human-readable
    violation strings (empty list means the pair nests properly):
    the fine sinks are the coarse sinks minus exactly one lost sink, arcs
    rooted outside the lost sink's in-tree coincide, and exactly one fine
    arc leads out of that in-tree.
    """
    problems = []
    if fine.m + 1 != coarse.m:
        return [f"sink counts {fine.m} and {coarse.m} are not consecutive"]
    if not fine.sinks <= coarse.sinks:
        problems.append("finer sink set is not contained in the coarser one")
        return problems
    lost = coarse.sinks - fine.sinks
    if len(lost) != 1:
        problems.append(f"expected exactly one lost sink, got {len(lost)}")
        return problems
    (lost_sink,) = lost

    succ = coarse.successor_map()

    def root_of(v):
        cur = v
        while cur in succ:
            cur = succ[cur]
        return cur

    basin = {v for v in coarse.vertices if root_of(v) == lost_sink}
    outside_coarse = {p for p in coarse.arcs if p[0] not in basin}
    outside_fine = {p for p in fine.arcs if p[0] not in basin}
    if outside_coarse != outside_fine:
        problems.append("arcs rooted outside the lost sink's in-tree differ")
    crossing = [p for p in fine.arcs if p[0] in basin and p[1] not in basin]
    if len(crossing) != 1:
        problems.append(
            f"expected exactly one arc leaving the lost sink's in-tree, got {len(crossing)}"
        )
    return problems
