"""Spanning in-forests with prescribed sink counts, and their optima.

A w-graph with m sinks assigns to each non-sink vertex exactly one of its
outgoing arcs so that no cycle forms; equivalently it is a spanning forest
of in-trees rooted at the m sinks.  Two routes to the optimal ones live
here.  The oracle is one exact enumeration for every sink count at once,
a single loop over per-depth cursors pruned by branch and bound on
integer weights: each sink count's ceiling starts at the weight of a
greedy in-forest and falls to the best w-graph found, and the walk skips
only partial assignments whose every completion is strictly heavier, so
it keeps every tied optimum, in enumeration order.  It stays exponential
and is capped at 9 states unless the caller raises the cap; a chain over
the cap is refused before any work.  The other route reads the optimum off a
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
from itertools import accumulate, compress, repeat
from math import inf
from typing import Optional, Sequence

from .chain import ChainGraph, EnumerationCapError, GraphError, InternalInvariantError, SymmetryError, state_key
from .chain import state_set_to_json, state_to_json
from .contraction import SuperVertex, find
from .graphio import format_rational

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
    arcs = tuple(chosen)
    tails = {t for (t, _h) in arcs}
    sinks = frozenset(s for s in g.states if s not in tails)
    return WGraph(vertices=vertices, sinks=sinks, arcs=arcs, total_weight=total)


def _decision_order(g: ChainGraph) -> list:
    """The order in which ``_iter_assignments`` decides the vertices."""
    return sorted(g.states, key=state_key)


def _check_cap(g: ChainGraph, cap: int) -> None:
    if g.n > cap:
        raise EnumerationCapError(
            f"enumeration over {g.n} vertices exceeds the cap of {cap}; "
            "raise the cap explicitly if the blow-up is acceptable"
        )


def _iter_assignments(
    g: ChainGraph, cap: int, weight: Optional[Sequence] = None, ceiling: Optional[list] = None
):
    """Yield every acyclic sink-or-arc assignment as (chosen pairs, total).

    One loop over per-depth cursors, not recursion, decides the vertices in
    ``_decision_order``, each first as a sink and then along its out-arcs
    in head order.  An arc that would close a cycle in the partial
    successor map is skipped, so only in-forests reach the caller.
    ``chosen`` is the walk's own list of (tail, head) pairs: copy it to keep
    it.  ``total`` sums the arcs' ``weight``, one int per arc aligned with
    ``g.arcs``, over it (0 without ``weight``).
    With ``ceiling``, a list by sink count that the caller may lower between
    yields, the walk skips every partial assignment, leaves included, whose
    completions with m sinks all weigh more than ``ceiling[m]``.
    """
    _check_cap(g, cap)
    verts = _decision_order(g)
    n = len(verts)
    rank = {v: i for i, v in enumerate(verts)}
    options: list = [[] for _ in verts]  # by tail rank: (head rank, pair, weight) in head order
    for a, w in sorted(zip(g.arcs, weight or repeat(0)), key=lambda aw: rank[aw[0].head]):
        options[rank[a.tail]].append((rank[a.head], a.pair(), w))
    # limit[i][a]: the heaviest total worth extending at depth i with a arcs
    limit = [[inf] * (n + 1)] * (n + 1)
    if ceiling is not None:
        # least[i][k]: the k smallest least-out-arc weights among the
        # vertices undecided at depth i, summed: a completion adding k arcs
        # weighs at least that much more, and has n - a - k sinks
        least_out = [min(w for _h, _p, w in opts) if opts else None for opts in options]
        least = [
            list(accumulate(sorted(w for w in least_out[i:] if w is not None), initial=0)) for i in range(n + 1)
        ]

        def limits() -> list:
            down = ceiling[::-1]  # down[a + k] is ceiling[n - a - k]
            return [[max(map(operator.sub, down[a:], least[i])) for a in range(i + 1)] for i in range(n + 1)]

        seen, limit = list(ceiling), limits()
    succ = [-1] * n  # succ[i]: the rank vertex i points to, or -1
    cursor = [0] * n  # vertex i tries the sink at 0, then options[i][j - 1] at j
    totals = [0] * n
    chosen: list = []
    i = 0
    while i >= 0:
        if succ[i] >= 0:  # retract vertex i's last arc
            succ[i] = -1
            chosen.pop()
        j, total, opts = cursor[i], totals[i], options[i]
        if j:
            while j <= len(opts):
                h, pair, w = opts[j - 1]
                root = h
                while succ[root] >= 0:
                    root = succ[root]
                if root != i:  # no cycle through vertex i
                    break
                j += 1
            else:
                i -= 1
                continue
            succ[i] = h
            chosen.append(pair)
            total += w
        cursor[i] = j + 1
        if total > limit[i + 1][len(chosen)]:
            continue
        if i + 1 < n:
            i += 1
            cursor[i], totals[i] = 0, total
            continue
        yield chosen, total
        if ceiling is not None and ceiling != seen:
            seen, limit = list(ceiling), limits()


def _greedy_ceilings(g: ChainGraph, weight: Sequence) -> list:
    """Weights by sink count of the in-forests met from all n sinks down,
    each step adding the lightest arc from a root into another tree; a
    count never met is over every in-forest's weight, and 0 sinks is -1."""
    n = g.n
    rank = {s: i for i, s in enumerate(g.states)}
    arcs = sorted((w, rank[a.tail], rank[a.head]) for a, w in zip(g.arcs, weight))
    ceiling = [-1] + [sum(weight) + 1] * n
    ceiling[n] = total = 0
    up = list(range(n))  # union-find: each tree's representative is its root
    for m in range(n - 1, 0, -1):
        for w, t, h in arcs:
            if up[t] == t and (root := find(up, h)) != t:
                up[t] = root
                ceiling[m] = total = total + w
                break
        else:
            break
    return ceiling


def enumerate_all_optimal(g: ChainGraph, cap: int = DEFAULT_ENUMERATION_CAP) -> dict:
    """Minimum-weight w-graphs for every sink count in one pruned enumeration.

    Returns {m: (optima, unique)} where optima is a tuple of WGraphs tied
    at the minimum, in enumeration order, and unique says whether exactly
    one attains it.  A graph over the cap is refused before any work.
    Weights are compared as integers after clearing denominators, so ties
    are exact.  The ceiling for each sink count starts at the weight of a
    greedy in-forest and falls to the best found so far.  A partial
    assignment is abandoned only when, for every sink count its completions
    can still reach, even the lightest completion weighs more than that
    ceiling: every in-forest weighs at least the optimum, so completions
    that tie with it are still visited, every tied optimum is found and the
    result equals that of the full enumeration.
    """
    _check_cap(g, cap)
    n = g.n
    scale, int_weight = g.integer_weights
    ceiling = _greedy_ceilings(g, int_weight)
    optima: dict = {}  # m -> assignments weighing ceiling[m]
    for chosen, total in _iter_assignments(g, cap, int_weight, ceiling):
        m = n - len(chosen)
        if total < ceiling[m]:
            ceiling[m] = total
            optima[m] = [tuple(chosen)]
        else:
            optima.setdefault(m, []).append(tuple(chosen))
    vertices = tuple(_decision_order(g))
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
        arc_id = {(a.tail, a.head): i for i, a in enumerate(g.arcs)}  # local: the graph keeps no map by pair
        self.weights = [int_weight[arc_id[p]] for p in pairs]
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

