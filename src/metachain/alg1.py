"""Single-min-arc sweep: critical exponents, T-graphs, sinks, cycle tree.

The sweep keeps one min-arc per current vertex in an exact-weight bucket and
transfers the globally cheapest arc at each step.  A transfer either extends
the growing transition graph (a non-cycle step, which fixes one eigenvalue
exponent) or closes a cycle, which is reweighted, contracted to a
super-vertex and re-entered into the bucket.  Arcs keep their original
(tail, head) identity throughout, so the fully expanded T-graph after k
steps is simply the first k transferred arcs with their in-force weights.

Exactness matters: weights are Fractions and every comparison is exact.
Weight ties mean the symmetry-free assumptions fail; they are detected and
flagged (never silently broken), and the run continues under a canonical
deterministic tie-break so cross-algorithm comparisons stay meaningful.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .chain import (
    Arc,
    ChainGraph,
    InternalInvariantError,
    State,
    ValidationFailure,
    parse_rational,
    state_key,
    validate,
)
from .contraction import WorkingGraph, super_vertex_name
from .graphio import arc_to_json, format_rational, state_to_json
from .stopping import StopCriterion

__all__ = [
    "Bucket",
    "TGraph",
    "TGraphs",
    "SinkRecord",
    "CycleRecord",
    "Alg1Report",
    "HierarchyNode",
    "updated_weight",
    "updated_prefactor",
    "update_outgoing_cycle",
    "detect_cycle_through",
    "run_algorithm1",
    "cycle_hierarchy",
    "hierarchy_json",
]

Pair = tuple


def updated_weight(u_ij, u_min_i, gamma_last) -> Fraction:
    """In-force weight of an arc leaving a freshly closed cycle."""
    return parse_rational(u_ij) - parse_rational(u_min_i) + parse_rational(gamma_last)


def updated_prefactor(kappa_ij: float, kappa_min_i: float, kappa_last: float) -> float:
    """Prefactor of an arc leaving a freshly closed cycle."""
    return kappa_ij * kappa_last / kappa_min_i


def _pair_key(tail: State, head: State):
    return (state_key(tail), state_key(head))


class Bucket:
    """Exact min-priority structure over arcs; ties are reported, not hidden."""

    def __init__(self):
        self._heap: list = []

    def __len__(self) -> int:
        return len(self._heap)

    def insert(self, arc: Arc) -> None:
        heapq.heappush(self._heap, (arc.weight, _pair_key(arc.tail, arc.head), arc))

    def peek_min_weight(self) -> Fraction:
        if not self._heap:
            raise IndexError("bucket is empty")
        return self._heap[0][0]

    def _pop_min_group(self) -> list[Arc]:
        w = self.peek_min_weight()
        group = [heapq.heappop(self._heap)[2]]
        while self._heap and self._heap[0][0] == w:
            group.append(heapq.heappop(self._heap)[2])
        return group

    def extract_min(self, tie_break: str = "lex") -> tuple[Arc, bool]:
        """Remove and return a globally minimal arc plus a tie flag.

        Among tied arcs, "lex" picks the smallest (tail, head), "revlex"
        the largest; the rest go back into the bucket.
        """
        group = self._pop_min_group()
        group.sort(key=lambda a: _pair_key(a.tail, a.head))
        chosen = group[0] if tie_break == "lex" else group[-1]
        for a in group:
            if a is not chosen:
                self.insert(a)
        return chosen, len(group) > 1

    def extract_all_min(self) -> tuple[Fraction, list[Arc]]:
        """Remove every arc attaining the current minimum weight."""
        group = self._pop_min_group()
        group.sort(key=lambda a: _pair_key(a.tail, a.head))
        return group[0].weight, group


def detect_cycle_through(successors, tail: State, head: State) -> Optional[tuple]:
    """The unique cycle through the new arc (tail -> head), if one exists.

    ``successors`` maps each vertex to its unique out-neighbour (absent key
    means a sink).  Walks from ``head``; reaching ``tail`` closes the cycle,
    reaching a sink or revisiting a vertex means there is none.  Returns the
    cycle's vertices starting at ``tail``.
    """
    walked: list = []
    seen = set()
    cur = head
    while True:
        if cur == tail:
            return (tail, *walked)
        if cur in seen:
            return None
        seen.add(cur)
        walked.append(cur)
        nxt = successors.get(cur)
        if nxt is None:
            return None
        cur = nxt


class _TSuccessors:
    """Live successor view over the T-arcs of current vertices."""

    def __init__(self, t_arc: dict, vertex_of: dict):
        self._t_arc = t_arc
        self._vertex_of = vertex_of

    def get(self, vid):
        arc = self._t_arc.get(vid)
        if arc is None:
            return None
        return self._vertex_of[arc.head]


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

    def to_json(self) -> list:
        return [
            {"threshold": format_rational(t), "end": e}
            for t, e in zip(self.thresholds, self.ends)
        ]


@dataclass(frozen=True)
class SinkRecord:
    m: int
    k: int
    s_star: State
    z_star: State


@dataclass(frozen=True)
class CycleRecord:
    index: int
    step: int
    birth: Fraction
    member_vids: tuple
    member_states: frozenset
    closing: tuple
    main_state: State
    contracted: bool
    super_vid: Optional[str]
    exit_pair: Optional[tuple]
    exit_weight: Optional[Fraction]


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

    def distinct_gamma(self) -> tuple:
        return tuple(sorted(set(self.gamma)))

    def to_json_dict(self) -> dict:
        return {
            "schema": 2,
            "kind": "alg1-report",
            "n": self.n,
            "tie_break": self.tie_break,
            "stop_reason": self.stop_reason,
            "K": self.K,
            "n_cycles": self.n_cycles,
            "order_one_only": self.order_one_only,
            "gamma": [format_rational(w) for w in self.gamma],
            "gamma_float": [float(w) for w in self.gamma],
            "delta": [None if d is None else format_rational(d) for d in self.delta],
            "delta_float": [None if d is None else float(d) for d in self.delta],
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
            "transfers": [arc_to_json(a) for a in self.transfers],
            "tgraphs": self.tgraphs.to_json(),
            "contraction_tree": hierarchy_json(cycle_hierarchy(self)),
        }


def update_outgoing_cycle(
    wg: WorkingGraph,
    cycle_vids: Iterable[State],
    gamma_last: Fraction,
    u_min: Mapping,
    kappa_min: Mapping,
    kappa_last: Optional[float] = None,
) -> dict:
    """Reweighted outgoing arc set for the super-vertex replacing a cycle.

    Arcs internal to the cycle are dropped, since none of them can be
    transferred any more; every exit arc (i in cycle -> j outside)
    gets weight U_ij - U_min(i) + gamma_last, and, when prefactors are
    carried, prefactor kappa_ij * kappa_last / kappa_min(i) where
    kappa_last belongs to the arc that closed the cycle.
    """
    exit_arcs, _intra = wg.split_outgoing(cycle_vids)
    updated = {}
    for pair, a in exit_arcs.items():
        tail_vid = wg.vertex_of[a.tail]
        w = updated_weight(a.weight, u_min[tail_vid], gamma_last)
        kappa = a.kappa
        if kappa is not None:
            kappa = updated_prefactor(kappa, kappa_min[tail_vid], kappa_last)
        updated[pair] = Arc(a.tail, a.head, w, kappa)
    return updated


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
    if not vreport.satisfies_a2:
        raise ValidationFailure(
            "the sweep needs exactly one closed communicating class, found "
            f"{len(vreport.closed_classes)}: "
            + ", ".join(super_vertex_name(c) for c in vreport.closed_classes)
        )

    n = g.n
    wg = WorkingGraph(g)
    bucket = Bucket()
    u_min: dict = {}
    kappa_min: dict = {}
    main: dict = {s: s for s in g.states}

    symmetry = {"detected": False, "step": None, "kind": None}

    def note_symmetry(step: int, kind: str) -> None:
        if not symmetry["detected"]:
            symmetry.update(detected=True, step=step, kind=kind)

    def select_min_arc(vid, step: int) -> Optional[Arc]:
        arcs = wg.out[vid]
        if not arcs:
            return None
        w = min(a.weight for a in arcs.values())
        attaining = sorted(
            (a for a in arcs.values() if a.weight == w),
            key=lambda a: _pair_key(a.tail, a.head),
        )
        if len(attaining) > 1:
            note_symmetry(step, "min-arc-multiplicity")
        chosen = attaining[0] if tie_break == "lex" else attaining[-1]
        u_min[vid] = w
        kappa_min[vid] = chosen.kappa
        bucket.insert(chosen)
        return chosen

    for v in sorted(wg.vertices, key=state_key):
        select_min_arc(v, step=0)

    gamma: list = []
    transfers: list = []
    delta: list = [None] * max(n - 1, 0)
    alpha: Optional[list] = [None] * max(n - 1, 0) if g.has_prefactors else None
    sinks: dict = {}
    cycles: list = []
    cycle_steps: list = []
    t_arc: dict = {}
    succ = _TSuccessors(t_arc, wg.vertex_of)
    in_terminal: set = set()
    terminal_main = None
    terminal_index = None
    k = 0
    r = 0
    stop_reason = "bucket-empty"

    def resolve_sink(start_vid) -> State:
        # Walk T-arcs to the component's sink, resolving super-vertices to
        # their main states; entering the uncontracted terminal cycle
        # resolves to that cycle's main state.
        cur = start_vid
        seen = set()
        while True:
            if cur in in_terminal:
                return terminal_main
            arc = t_arc.get(cur)
            if arc is None:
                return main[cur]
            if cur in seen:
                raise InternalInvariantError("sink walk looped outside the terminal cycle")
            seen.add(cur)
            cur = wg.vertex_of[arc.head]

    while len(bucket):
        if stop.kind == "bucket-size-one" and len(bucket) == 1:
            stop_reason = "bucket-size-one"
            break
        if stop.kind == "exponent-threshold" and bucket.peek_min_weight() >= stop.threshold:
            stop_reason = "exponent-threshold"
            break
        arc, tied = bucket.extract_min(tie_break)
        k += 1
        if tied:
            note_symmetry(k, "bucket-min-multiplicity")
        w = arc.weight
        gamma.append(w)
        transfers.append(arc)
        tail_vid = wg.vertex_of[arc.tail]
        wg.remove_arc(arc)
        cyc = detect_cycle_through(succ, tail_vid, wg.vertex_of[arc.head])
        if cyc is None:
            m = n - k + r
            if not (1 <= m <= n - 1):
                raise InternalInvariantError(f"sink bookkeeping out of range: m={m}")
            delta[m - 1] = w
            if alpha is not None:
                alpha[m - 1] = arc.kappa
            s_star = resolve_sink(tail_vid)
            z_star = resolve_sink(wg.vertex_of[arc.head])
            sinks[m] = SinkRecord(m=m, k=k, s_star=s_star, z_star=z_star)
            t_arc[tail_vid] = arc
        else:
            r += 1
            cycle_steps.append(k)
            t_arc[tail_vid] = arc
            cycle_main = main[tail_vid]
            member_states = frozenset().union(*(wg.members[v] for v in cyc))
            updated = update_outgoing_cycle(
                wg, cyc, w, u_min, kappa_min, kappa_last=arc.kappa
            )
            if not updated:
                if terminal_index is not None:
                    raise InternalInvariantError("second cycle without outgoing arcs")
                in_terminal = set(cyc)
                terminal_main = cycle_main
                terminal_index = r
                cycles.append(
                    CycleRecord(
                        index=r, step=k, birth=w, member_vids=tuple(cyc),
                        member_states=member_states, closing=arc.pair(),
                        main_state=cycle_main, contracted=False, super_vid=None,
                        exit_pair=None, exit_weight=None,
                    )
                )
            else:
                for v in cyc:
                    del t_arc[v]
                super_vid = wg.contract(cyc, updated)
                main[super_vid] = cycle_main
                chosen = select_min_arc(super_vid, step=k)
                cycles.append(
                    CycleRecord(
                        index=r, step=k, birth=w, member_vids=tuple(cyc),
                        member_states=member_states, closing=arc.pair(),
                        main_state=cycle_main, contracted=True, super_vid=super_vid,
                        exit_pair=chosen.pair(), exit_weight=u_min[super_vid],
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
    pending: dict = {}  # super-vertex -> node, until a later record absorbs it
    made: list = []
    consumed: set = set()
    for rec in records:
        consumed.update(rec.member_vids)
        children = tuple(
            pending.pop(v) if v in pending else HierarchyNode("state", v, None, ())
            for v in _sorted_vids(rec.member_vids)
        )
        node = HierarchyNode("cycle", None, rec, children)
        if rec.super_vid is not None:
            pending[rec.super_vid] = node
        made.append((rec, node))
    # an uncontracted terminal cycle is always a root
    roots = [node for rec, node in made if rec.super_vid is None or rec.super_vid in pending]
    roots.extend(
        HierarchyNode("state", s, None, ())
        for s in sorted(states, key=state_key)
        if s not in consumed
    )
    return tuple(roots)


def _sorted_vids(vids: Iterable) -> list:
    return sorted(vids, key=state_key)
