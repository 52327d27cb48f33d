"""Spanning in-forests with prescribed sink counts, and their optima.

A w-graph with m sinks assigns to each non-sink vertex exactly one of its
outgoing arcs so that no cycle forms; equivalently it is a spanning forest
of in-trees rooted at the m sinks.  Two routes to the optimal ones live
here: brute-force enumeration (exponential, capped, used as an oracle) and
linear-time extraction from a completed sweep report, which walks the
k(m)-th transition graph backwards from the known sinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

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


def _make_wgraph(g: ChainGraph, chosen: Sequence) -> WGraph:
    arcs = _sorted_pairs(a.pair() for a in chosen)
    tails = {t for (t, _h) in arcs}
    sinks = frozenset(s for s in g.states if s not in tails)
    total = sum((a.weight for a in chosen), Fraction(0))
    return WGraph(
        vertices=tuple(sorted(g.states, key=state_key)),
        sinks=sinks,
        arcs=arcs,
        total_weight=total,
    )


def _iter_assignments(g: ChainGraph, cap: int):
    """Yield every acyclic sink-or-arc assignment as a list of chosen arcs.

    Cycles are pruned during construction by walking the partial successor
    map, so only genuine in-forests reach the caller.
    """
    if g.n > cap:
        raise EnumerationCapError(
            f"enumeration over {g.n} vertices exceeds the cap of {cap}; "
            "raise the cap explicitly if the blow-up is acceptable"
        )
    verts = sorted(g.states, key=state_key)
    out_choices = {
        v: sorted(g.out_arcs(v), key=lambda a: state_key(a.head)) for v in verts
    }
    succ: dict = {}
    chosen: list = []

    def creates_cycle(v, h) -> bool:
        cur = h
        while cur in succ:
            cur = succ[cur]
            if cur == v:
                return True
        return False

    def rec(i: int):
        if i == len(verts):
            yield list(chosen)
            return
        v = verts[i]
        yield from rec(i + 1)  # v is a sink
        for arc in out_choices[v]:
            if creates_cycle(v, arc.head):
                continue
            succ[v] = arc.head
            chosen.append(arc)
            yield from rec(i + 1)
            chosen.pop()
            del succ[v]

    yield from rec(0)


def enumerate_wgraphs(g: ChainGraph, m: int, cap: int = DEFAULT_ENUMERATION_CAP):
    """Yield every w-graph of g with exactly m sinks (brute force)."""
    if not (1 <= m <= g.n):
        raise ValueError(f"sink count must lie in [1, {g.n}], got {m}")
    target_arcs = g.n - m
    for chosen in _iter_assignments(g, cap):
        if len(chosen) == target_arcs:
            yield _make_wgraph(g, chosen)


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
    """Minimum-weight w-graphs for every sink count in one enumeration pass.

    Returns {m: (optima, unique)} where optima is a tuple of WGraphs tied
    at the minimum and unique says whether exactly one attains it.  Weights
    are compared as integers after clearing denominators, so ties are exact.
    """
    scale = lcm(*(a.weight.denominator for a in g.arcs)) if g.arcs else 1
    int_weight = {a.pair(): int(a.weight * scale) for a in g.arcs}
    best: dict = {}
    for chosen in _iter_assignments(g, cap):
        m = g.n - len(chosen)
        if only_m is not None and m != only_m:
            continue
        total = sum(int_weight[a.pair()] for a in chosen)
        slot = best.get(m)
        if slot is None or total < slot[0]:
            best[m] = (total, [list(chosen)])
        elif total == slot[0]:
            slot[1].append(list(chosen))
    result = {}
    for m, (_total, assignments) in sorted(best.items()):
        graphs = tuple(_make_wgraph(g, ch) for ch in assignments)
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
        heads.sort(key=lambda a: state_key(a.tail))

    visited = set(sink_list)
    queue = list(sink_list)
    chosen_pairs: list = []
    while queue:
        v = queue.pop(0)
        for a in incoming.get(v, ()):
            if a.tail in visited:
                continue
            visited.add(a.tail)
            chosen_pairs.append(a.pair())
            queue.append(a.tail)
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
