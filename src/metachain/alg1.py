"""Single-min-arc sweep: critical exponents, T-graphs, sinks, cycle tree.

The sweep keeps one min-arc per current vertex in a bucket of ints
``w * m + p`` (arc id p of m, in-force weight w: ``WorkingGraph``'s
encoding, so equal weights leave in id order) and transfers the cheapest
at each step.  A transfer either extends the growing transition graph (a
non-cycle step, which fixes one eigenvalue exponent) or closes a cycle,
which the working graph contracts to a super-vertex with repriced exit
arcs; the super-vertex's min-arc then enters the bucket.  Transfers keep
their original (tail, head) pair, so the fully expanded T-graph after k
steps is simply the first k transferred arcs with their in-force weights.

Exactness matters: the sweep compares and reprices integers, every
exponent times the lcm of the chain's denominators, and reports each
value as a Fraction.  A union-find over the T-arc trees names the sink a
transfer drains into; only a closing cycle is walked, and then contracted.
Weight ties mean the symmetry-free assumptions fail; they are detected and
flagged (never silently broken), and the run continues under a canonical
deterministic tie-break so cross-algorithm comparisons stay meaningful.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .chain import (
    ChainGraph,
    InternalInvariantError,
    State,
    state_key,
    validate,
)
from .contraction import SuperVertex, WorkingGraph, find, vertex_order
from .graphio import arc_to_json, format_rational, gc_paused, state_to_json
from .stopping import StopCriterion
from .wgraph import ForestExpansion

__all__ = [
    "TGraph",
    "TGraphs",
    "SinkRecord",
    "CycleRecord",
    "Alg1Report",
    "HierarchyNode",
    "run_algorithm1",
    "cycle_hierarchy",
    "hierarchy_json",
]


class TGraph:
    """Fully expanded transition graph in force up to a threshold exponent.

    Its arcs are the first ``end`` entries of the sweep's transfer sequence,
    sliced out on each access.
    """

    __slots__ = ("vertices", "threshold", "_transfers", "_end")

    def __init__(self, vertices: tuple, transfers: Sequence, end: int, threshold: Fraction):
        self.vertices = vertices
        self.threshold = threshold
        self._transfers = transfers
        self._end = end

    @property
    def arcs(self) -> tuple:
        return tuple(self._transfers[: self._end])

    def pairs(self) -> frozenset:
        return frozenset(a.pair() for a in self.arcs)

    def __eq__(self, other):
        if not isinstance(other, TGraph):
            return NotImplemented
        return (self.vertices, self.threshold, self.arcs) == (
            other.vertices, other.threshold, other.arcs
        )

    def __hash__(self):
        return hash((self.vertices, self.threshold, self.arcs))


@dataclass(frozen=True)
class TGraphs(SequenceABC):
    """The T-graphs of one sweep as prefixes of one shared transfer tuple.

    Entry i holds ``transfers[:ends[i]]`` with threshold ``thresholds[i]``;
    entry 0 is the empty graph at threshold 0.  Indexing builds a TGraph,
    slicing gives another view over the same tuple.
    """

    states: tuple
    transfers: tuple
    ends: Sequence
    thresholds: tuple

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return TGraphs(self.states, self.transfers, self.ends[i], self.thresholds[i])
        return TGraph(self.states, self.transfers, self.ends[i], self.thresholds[i])


@dataclass(frozen=True)
class SinkRecord:
    m: int
    k: int
    s_star: State
    z_star: State


@dataclass(frozen=True)
class CycleRecord:
    """One closed cycle.  ``member_vids`` lists its vertices, states or
    ``SuperVertex`` handles, from the tail of the closing arc on; ``vertex``
    is the super-vertex the cycle became.  A cycle without exit arcs is the
    terminal one: ``contracted`` is False."""

    index: int
    step: int
    birth: Fraction
    member_vids: tuple
    vertex: SuperVertex
    closing: tuple
    main_state: State
    contracted: bool
    exit_pair: Optional[tuple]
    exit_weight: Optional[Fraction]

    @property
    def member_states(self) -> frozenset:
        """The original states of the cycle, expanded on each access."""
        return self.vertex.states()


@dataclass(frozen=True)
class Alg1Report:
    graph: ChainGraph
    tie_break: str
    gamma: tuple
    transfers: tuple
    tgraphs: TGraphs
    delta: tuple
    alpha: Optional[tuple]
    sinks: dict
    cycle_steps: tuple
    cycles: tuple
    symmetry_detected: bool
    symmetry_step: Optional[int]
    symmetry_kind: Optional[str]
    stop_reason: str
    K: int
    n_cycles: int
    order_one_only: bool
    terminal_cycle_index: Optional[int]

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def complete(self) -> bool:
        return self.stop_reason in ("bucket-empty",)

    @cached_property
    def forest_expansion(self) -> ForestExpansion:
        """This report replayed once for ``extract_wgraph``."""
        return ForestExpansion(self)

    @gc_paused
    def to_json_dict(self) -> dict:
        """Schema 3.  T-graph k is the first k transfers at threshold
        ``gamma[k-1]`` (the empty one at 0), so neither is written."""
        transfers = [arc_to_json(a) for a in self.transfers]
        return {
            "schema": 3,
            "kind": "alg1-report",
            "n": self.n,
            "tie_break": self.tie_break,
            "stop_reason": self.stop_reason,
            "K": self.K,
            "n_cycles": self.n_cycles,
            "order_one_only": self.order_one_only,
            # gamma[k] is the in-force exponent of transfer k
            "gamma": [t["U"] for t in transfers],
            "delta": [None if d is None else format_rational(d) for d in self.delta],
            "alpha": None if self.alpha is None else list(self.alpha),
            "sinks": {
                str(m): {"k": rec.k, "s": state_to_json(rec.s_star), "z": state_to_json(rec.z_star)}
                for m, rec in sorted(self.sinks.items())
            },
            "cycle_steps": list(self.cycle_steps),
            "symmetry": {
                "detected": self.symmetry_detected,
                "step": self.symmetry_step,
                "kind": self.symmetry_kind,
            },
            "transfers": transfers,
            "contraction_tree": hierarchy_json(cycle_hierarchy(self)),
        }


def run_algorithm1(
    g: ChainGraph,
    stop: Optional[StopCriterion] = None,
    tie_break: str = "lex",
) -> Alg1Report:
    """Run the single-min-arc sweep to the chosen stop criterion.

    Requires a graph with exactly one closed communicating class.  Weight
    ties are flagged as detected symmetry; the run continues with the
    canonical tie-break but downstream consumers that assume a
    symmetry-free run must reject flagged reports.
    """
    if tie_break not in ("lex", "revlex"):
        raise ValueError(f"unknown tie break {tie_break!r}")
    if stop is None:
        stop = StopCriterion.bucket_empty()
    if stop.kind not in ("bucket-empty", "bucket-size-one", "exponent-threshold", "custom"):
        raise ValueError(f"stop criterion {stop.kind!r} does not apply to this sweep")
    vreport = validate(g)
    vreport.require_one_closed_class()

    n = g.n
    wg = WorkingGraph(g, revlex=tie_break == "revlex")
    scale, vertex = wg.scale, wg.vertex
    n_ids, kappa = wg.m, wg.kappa
    bucket: list = []  # w * n_ids + p for the chosen min-arc p of each current vertex
    kappa_min: dict = {}  # current vertex -> prefactor of its chosen min arc
    main: dict = dict(enumerate(vertex))  # current vertex -> its main state
    limit = None if stop.threshold is None else math.ceil(stop.threshold * scale)

    symmetry = {"detected": False, "step": None, "kind": None}

    def note_symmetry(step: int, kind: str) -> None:
        if not symmetry["detected"]:
            symmetry.update(detected=True, step=step, kind=kind)

    def select_min_arc(vid, step: int) -> Optional[int]:
        chosen, tied = wg.min_arc(vid)
        if tied:
            note_symmetry(step, "min-arc-multiplicity")
        if chosen is not None:
            kappa_min[vid] = kappa[chosen]
            heapq.heappush(bucket, wg.u_min[vid] * n_ids + chosen)
        return chosen

    for v in range(n):
        select_min_arc(v, step=0)

    gamma: list = []
    transfers: list = []
    delta: list = [None] * max(n - 1, 0)
    alpha: Optional[list] = [None] * max(n - 1, 0) if g.has_prefactors else None
    sinks: dict = {}
    cycles: list = []
    cycle_steps: list = []
    # Every cycle is contracted as it closes, so the T-arcs of the current
    # vertices form an in-forest.  ``tree`` is a union-find over its trees;
    # a tree's root is always a state id, and ``sink[root]`` is its sink.
    t_head: dict = {}  # current vertex -> the state its T-arc enters
    tree, sink = list(range(n)), list(range(n))
    terminal_index = None
    k = 0
    r = 0
    stop_reason = "bucket-empty"

    while bucket:
        if stop.kind == "bucket-size-one" and len(bucket) == 1:
            stop_reason = "bucket-size-one"
            break
        if stop.kind == "exponent-threshold" and bucket[0] // n_ids >= limit:
            stop_reason = "exponent-threshold"
            break
        threshold, p = divmod(heapq.heappop(bucket), n_ids)
        k += 1
        if bucket and bucket[0] // n_ids == threshold:
            note_symmetry(k, "bucket-min-multiplicity")
        arc = wg.transfer(p, threshold)
        tail_v, head_v = wg.vertex_of(arc.tail), wg.vertex_of(arc.head)
        w = arc.weight
        gamma.append(w)
        transfers.append(arc)
        root = find(tree, head_v)
        z = sink[root]
        if z != tail_v:
            m = n - k + r
            if not (1 <= m <= n - 1):
                raise InternalInvariantError(f"sink bookkeeping out of range: m={m}")
            delta[m - 1] = w
            if alpha is not None:
                alpha[m - 1] = arc.kappa
            sinks[m] = SinkRecord(m=m, k=k, s_star=main[tail_v], z_star=main[z])
            t_head[tail_v] = arc.head
            tree[find(tree, tail_v)] = root
        else:
            # the arc closes a cycle: walk its T-arcs back to the tail
            walked: list = []
            cur = head_v
            while cur != tail_v:
                walked.append(cur)
                if cur not in t_head or len(walked) > len(t_head):
                    raise InternalInvariantError("T-arc walk looped without closing a cycle")
                cur = wg.vertex_of(t_head[cur])
            r += 1
            cycle_steps.append(k)
            for v in walked:
                del t_head[v]
            sv = wg.contract([tail_v, *walked], threshold, kappa_min, arc.kappa)
            main[sv] = main[tail_v]
            tree.append(root)
            sink[root] = sv
            chosen = select_min_arc(sv, step=k)
            if chosen is None:
                if terminal_index is not None:
                    raise InternalInvariantError("second cycle without outgoing arcs")
                terminal_index = r
            cycles.append(
                CycleRecord(
                    index=r, step=k, birth=w,
                    member_vids=tuple(vertex[v] for v in (tail_v, *walked)),
                    vertex=vertex[sv], closing=arc.pair(), main_state=main[sv],
                    contracted=chosen is not None,
                    exit_pair=None if chosen is None else wg.arcs[chosen].pair(),
                    exit_weight=None if chosen is None else Fraction(wg.u_min[sv], scale),
                )
            )
        if stop.kind == "custom":
            if stop.predicate(TGraph(g.states, transfers, k, w), w):
                stop_reason = "custom"
                break

    transfers = tuple(transfers)
    gamma = tuple(gamma)
    report = Alg1Report(
        graph=g,
        tie_break=tie_break,
        gamma=gamma,
        transfers=transfers,
        tgraphs=TGraphs(g.states, transfers, range(k + 1), (Fraction(0),) + gamma),
        delta=tuple(delta),
        alpha=None if alpha is None else tuple(alpha),
        sinks=sinks,
        cycle_steps=tuple(cycle_steps),
        cycles=tuple(cycles),
        symmetry_detected=symmetry["detected"],
        symmetry_step=symmetry["step"],
        symmetry_kind=symmetry["kind"],
        stop_reason=stop_reason,
        K=k,
        n_cycles=r,
        order_one_only=not g.has_prefactors,
        terminal_cycle_index=terminal_index,
    )
    if stop_reason == "bucket-empty":
        _assert_complete_run_invariants(report, vreport.is_irreducible)
    return report


def _assert_complete_run_invariants(rep: Alg1Report, irreducible: bool) -> None:
    n = rep.n
    if rep.K - rep.n_cycles != n - 1:
        raise InternalInvariantError(
            f"step counting broken: K={rep.K}, cycles={rep.n_cycles}, n={n}"
        )
    if any(d is None for d in rep.delta):
        raise InternalInvariantError("complete run left eigenvalue exponents unset")
    if not (0 <= rep.n_cycles <= max(n - 1, 0)):
        raise InternalInvariantError(f"cycle count out of range: {rep.n_cycles}")
    if irreducible and n >= 2 and rep.n_cycles < 1:
        raise InternalInvariantError("irreducible chain produced no cycles")
    if not rep.symmetry_detected:
        for a, b in zip(rep.gamma, rep.gamma[1:]):
            if not a < b:
                raise InternalInvariantError("exponents not strictly increasing without ties")
        for a, b in zip(rep.delta, rep.delta[1:]):
            if not a > b:
                raise InternalInvariantError("eigenvalue exponents not strictly decreasing")
        ks = [rep.sinks[m].k for m in sorted(rep.sinks)]
        for a, b in zip(ks, ks[1:]):
            if not a > b:
                raise InternalInvariantError("sink step indices not decreasing in m")


@dataclass(frozen=True)
class HierarchyNode:
    kind: str
    state: Optional[State]
    record: Optional[CycleRecord]
    children: tuple = field(repr=False)  # a deep tree must not recurse in repr

    def to_json_dict(self, child_indices: Sequence[int]) -> dict:
        """This node alone; its children are given by their list positions."""
        if self.kind == "state":
            return {"kind": "state", "id": state_to_json(self.state)}
        rec = self.record
        return {
            "kind": "cycle",
            "index": rec.index,
            "birth": format_rational(rec.birth),
            "exit": None if rec.exit_weight is None else format_rational(rec.exit_weight),
            "main": state_to_json(rec.main_state),
            "contracted": rec.contracted,
            "children": list(child_indices),
        }


def hierarchy_json(roots: Sequence[HierarchyNode]) -> list:
    """Flat node list of a forest: children before parents, roots in order.

    A root is a node that no other node names as a child.
    """
    out: list = []
    position: dict = {}
    stack = [(node, False) for node in reversed(roots)]
    while stack:
        node, expanded = stack.pop()
        if expanded or not node.children:
            position[id(node)] = len(out)
            out.append(node.to_json_dict([position[id(c)] for c in node.children]))
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(node.children))
    return out


def cycle_hierarchy(report: Alg1Report) -> tuple:
    """Rooted forest of nested cycles; leaves are the original states."""
    return _hierarchy(report.graph.states, report.cycles)


def _hierarchy(states: Sequence, records: Sequence) -> tuple:
    # Records come in the order they were made, so every super-vertex among
    # a record's members already has its node when the record is reached.
    pending: dict = {}  # super-vertex -> its node, until a later record absorbs it
    consumed: set = set()
    for rec in records:
        children: list = []
        for v in vertex_order(rec.member_vids):
            if isinstance(v, SuperVertex):
                children.append(pending.pop(v))
            else:
                consumed.add(v)
                children.append(HierarchyNode("state", v, None, ()))
        pending[rec.vertex] = HierarchyNode("cycle", None, rec, tuple(children))
    # what no record absorbed is a root, in record order; an uncontracted
    # terminal cycle is always one
    roots = list(pending.values())
    roots.extend(
        HierarchyNode("state", s, None, ())
        for s in sorted(states, key=state_key)
        if s not in consumed
    )
    return tuple(roots)
