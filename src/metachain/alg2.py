"""Tie-tolerant sweep: release whole min-arc sets, contract closed classes.

Where the single-arc sweep breaks weight ties one arc at a time, this
variant releases every arc attaining the bucket minimum at once and then
contracts every nontrivial closed communicating class of the current
transition graph simultaneously.  It therefore needs no tie-breaking and is
the reference behaviour for graphs with weight symmetries; its bucket is
the single-arc sweep's, so a released group is in id order.  Prefactors, if
present, are carried through unmodified and flagged as ignored: the class
update rule only preserves exponents.  The new closed classes of a step are
found on the contracted graph, from the vertices that step released, never
recomputed from scratch; a released vertex whose first arc already leads
to a sink, directly or by a memo, is settled without a walk.

``compare_alg1_alg2`` checks the four consistency statements tying the two
sweeps together; the command-line ``compare`` subcommand turns a violation
into exit code 2 because it can only mean an implementation bug.  It
follows the closed classes of both expanded arc sets with the same walk
the sweep uses, on state ids rather than the sweep's working graph, and
pairs again only the classes a window changed.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .alg1 import (
    Alg1Report,
    TGraph,
    TGraphs,
    _hierarchy,
    hierarchy_json,
    run_algorithm1,
)
from .chain import (
    Arc,
    ChainGraph,
    GraphError,
    InternalInvariantError,
    State,
    closed_communicating_classes,
    state_key,
    validate,
)
from .contraction import SuperVertex, WorkingGraph, find, vertex_order
from .graphio import arc_to_json, format_rational, gc_paused, state_set_to_json, state_to_json
from .stopping import StopCriterion

__all__ = [
    "ClassRecord",
    "Alg2Report",
    "ComparisonReport",
    "run_algorithm2",
    "class_hierarchy",
    "compare_alg1_alg2",
]


@dataclass(frozen=True)
class ClassRecord:
    """One contracted closed class.  ``member_vids`` is the set of current
    vertices it joined, states or ``SuperVertex`` handles; ``vertex`` is the
    super-vertex it became."""

    index: int
    step: int
    birth: Fraction
    member_vids: frozenset
    vertex: SuperVertex
    main_state: State  # the least member state
    exit_weight: Optional[Fraction]

    # class_hierarchy reuses the cycle-forest builder, which looks this up
    @property
    def contracted(self) -> bool:
        return True

    @property
    def member_states(self) -> frozenset:
        """The original states of the class, expanded on each access."""
        return self.vertex.states()


@dataclass(frozen=True)
class Alg2Report:
    graph: ChainGraph
    theta: tuple
    multiplicity: tuple
    tgraphs: TGraphs
    classes: tuple
    final_closed_classes: tuple
    final_absorbing: tuple
    transient_states: tuple
    covering_class: Optional[frozenset]
    stop_reason: str
    prefactors_ignored: bool

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def P(self) -> int:
        return len(self.theta)

    @property
    def transfers(self) -> tuple:
        """Every released arc, in release order."""
        return self.tgraphs.transfers

    @property
    def transfers_by_step(self) -> tuple:
        """The arcs released at each step, one slice of ``transfers`` per step."""
        t, ends = self.tgraphs.transfers, self.tgraphs.ends
        return tuple(t[a:b] for a, b in zip(ends, ends[1:]))

    @gc_paused
    def to_json_dict(self) -> dict:
        """Schema 4.  The arcs of release step p all carry the in-force
        exponent ``theta[p-1]`` and theta strictly increases, so T-graph p
        ends after the p-th run of equal ``U`` in ``transfers``; neither is
        written."""
        return {
            "schema": 4,
            "kind": "alg2-report",
            "n": self.n,
            "stop_reason": self.stop_reason,
            "P": self.P,
            "theta": [format_rational(w) for w in self.theta],
            "multiplicity": list(self.multiplicity),
            "prefactors_ignored": self.prefactors_ignored,
            "final_closed_classes": [state_set_to_json(c) for c in self.final_closed_classes],
            "final_absorbing": [state_to_json(s) for s in self.final_absorbing],
            "transient_states": [state_to_json(s) for s in self.transient_states],
            "covering_class": None
            if self.covering_class is None
            else state_set_to_json(self.covering_class),
            "transfers": [arc_to_json(a) for a in self.transfers],
            "contraction_tree": hierarchy_json(class_hierarchy(self)),
        }


def class_hierarchy(report: Alg2Report) -> tuple:
    """Rooted forest of contracted closed classes; leaves are states."""
    return _hierarchy(report.graph.states, report.classes)


def run_algorithm2(
    g: ChainGraph,
    stop: Optional[StopCriterion] = None,
    _class_order=None,
) -> Alg2Report:
    """Run the simultaneous-release sweep to the chosen stop criterion.

    Each current vertex releases its whole min-arc set once; until then it
    is a sink of the graph of released arcs.  Every closed class of a step
    is contracted at once into a new sink, so a class closing at step p
    holds a vertex released at step p, and the sweep finds the new classes
    with one Tarjan pass over released arcs from those vertices (see
    ``_new_closed_classes``), never on the expanded states.  At the end the
    closed classes are the sinks and the classes of the last step left
    uncontracted by a stop; every other state is transient.

    A class-covering stop looks at the closed classes of the current graph
    after each release, before contraction: first the nontrivial ones, in
    the order of their sorted current vertices, then the absorbing current
    vertices in state order.  The first class meeting both targets is the
    ``covering_class``.

    ``_class_order`` is a test hook: it receives the list of closed classes
    detected in one step and returns them in the order to contract.  The
    result is provably order-independent; the hook exists to verify that.
    """
    if stop is None:
        stop = StopCriterion.bucket_empty()
    if stop.kind not in ("bucket-empty", "exponent-threshold", "class-covering", "custom"):
        raise ValueError(f"stop criterion {stop.kind!r} does not apply to this sweep")
    validate(g).require_one_closed_class()
    return _sweep(g, stop, _class_order)


def _sweep(g: ChainGraph, stop: StopCriterion, _class_order=None) -> Alg2Report:
    """``run_algorithm2`` on a graph with one closed class, already checked."""
    wg = WorkingGraph(g)
    scale, vertex, sid = wg.scale, wg.vertex, wg.sid
    if stop.kind == "class-covering":
        unknown = sorted({s for t in stop.targets for s in t if s not in sid}, key=state_key)
        if unknown:
            raise GraphError(f"covering stop names states not in the graph: {unknown!r}")
        # per vertex id, whether it holds a state of each target set
        targets = stop.targets
        hits = tuple([s in t for s in vertex] for t in targets)
    n_ids = wg.m
    # w * n_ids + q for every min-arc id q not yet released
    bucket = [wg.u_min[v] * n_ids + q for v in range(g.n) for q in wg.min_arcs(v)]
    heapq.heapify(bucket)
    limit = None if stop.threshold is None else math.ceil(stop.threshold * scale)

    heads: dict = {}  # released current vertex -> head state ids of its released arcs
    sinks = set(range(g.n))  # current vertices not yet released
    reach: dict = {}  # released vertex -> a vertex it reached that was a sink then
    theta: list = []
    multiplicity: list = []
    ends: list = [0]
    released_all: list = []
    classes: list = []
    n_current = g.n
    covering: Optional[frozenset] = None
    stop_reason = "bucket-empty"
    p = 0

    while bucket:
        if stop.kind == "exponent-threshold" and bucket[0] // n_ids >= limit:
            stop_reason = "exponent-threshold"
            break
        threshold, released = bucket[0] // n_ids, []
        while bucket and bucket[0] // n_ids == threshold:
            released.append(wg.transfer(heapq.heappop(bucket) % n_ids, threshold))
        p += 1
        step: dict = {}
        for a in released:
            step.setdefault(wg.vertex_of(a.tail), []).append(sid[a.head])
        multiplicity.append(len(step))
        w = released[0].weight
        theta.append(w)
        released_all.extend(released)
        ends.append(len(released_all))
        heads.update(step)
        sinks.difference_update(step)

        by_vids = {
            frozenset(vertex[v] for v in ids): ids
            for ids in _new_closed_classes(wg.up, step, heads, sinks, reach)
        }
        nontrivial = list(by_vids)
        if len(nontrivial) > 1:
            # disjoint classes: the first of each in vertex order decides
            rank = {v: i for i, v in enumerate(vertex_order(v for c in nontrivial for v in c))}
            nontrivial.sort(key=lambda c: min(rank[v] for v in c))
        if stop.kind == "class-covering":
            for cls in nontrivial:
                ids = by_vids[cls]
                if all(any(h[v] for v in ids) for h in hits):
                    covering = frozenset().union(*map(_held_states, cls))
                    break
            # The absorbing current vertices are offered at step 1 only.  Later
            # on, an absorbing state was absorbing at step 1 too, and an
            # absorbing super-vertex holds the states of a class offered when
            # it closed; a set that missed the targets then misses them now.
            if covering is None and p == 1:
                both = [s for s in targets[0] & targets[1] if sid[s] in sinks]
                if both:
                    covering = frozenset((min(both, key=state_key),))
            if covering is not None:
                stop_reason = "class-covering"
                break
        if stop.kind == "custom":
            if stop.predicate(TGraph(g.states, released_all, len(released_all), w), w):
                stop_reason = "custom"
                break
        if len(nontrivial) == 1 and len(nontrivial[0]) == n_current:
            stop_reason = "full-closure"
            break

        to_contract = nontrivial
        if _class_order is not None:
            to_contract = [frozenset(c) for c in _class_order(nontrivial)]
            if set(to_contract) != set(by_vids):
                raise ValueError("_class_order must permute the detected classes")
        for cls in to_contract:
            ids = by_vids[cls]
            sv = wg.contract(ids, threshold)
            n_current -= len(ids) - 1
            for v in ids:
                del heads[v]
                reach.pop(v, None)
            sinks.add(sv)
            if stop.kind == "class-covering":
                for h in hits:
                    h.append(any(h[v] for v in ids))
            exits = wg.min_arcs(sv)
            for q in exits:
                heapq.heappush(bucket, wg.u_min[sv] * n_ids + q)
            classes.append(
                ClassRecord(
                    index=len(classes) + 1,
                    step=p,
                    birth=w,
                    member_vids=cls,
                    vertex=vertex[sv],
                    main_state=vertex[sv].least,
                    exit_weight=Fraction(wg.u_min[sv], scale) if exits else None,
                )
            )

    theta = tuple(theta)
    tgraphs = TGraphs(g.states, tuple(released_all), tuple(ends), (Fraction(0),) + theta)
    final = [_held_states(vertex[v]) for v in sinks]
    if stop_reason in ("class-covering", "custom", "full-closure"):
        # the classes the last step found and left uncontracted
        final += [frozenset().union(*map(_held_states, c)) for c in nontrivial]
    closed = frozenset().union(*final)
    return Alg2Report(
        graph=g,
        theta=theta,
        multiplicity=tuple(multiplicity),
        tgraphs=tgraphs,
        classes=tuple(classes),
        final_closed_classes=tuple(
            sorted((c for c in final if len(c) >= 2), key=lambda c: sorted(map(state_key, c)))
        ),
        final_absorbing=tuple(
            sorted((s for c in final if len(c) == 1 for s in c), key=state_key)
        ),
        transient_states=tuple(s for s in vertex[: g.n] if s not in closed),
        covering_class=covering,
        stop_reason=stop_reason,
        prefactors_ignored=g.has_prefactors,
    )


def _held_states(v) -> frozenset:
    """The original states a current vertex (a state or a handle) holds."""
    return v.states() if isinstance(v, SuperVertex) else frozenset((v,))


def _new_closed_classes(up: list, starts, heads: dict, sinks: set, reach: dict) -> list:
    """The nontrivial closed classes reachable from ``starts``, each as a
    list of current vertices, found by one iterative Tarjan pass.

    Vertices are ints, and ``find(up, x)`` is the current vertex holding x.
    Every current vertex not in ``sinks`` must have ``heads``: the heads of
    its arcs as ids, ``up`` resolving each.  The pass follows those arcs.
    It stops at a sink, and at a vertex whose memo in ``reach`` names a
    vertex that is still a sink: arcs are never taken back and a
    contraction keeps every path, so that vertex still reaches the sink and
    lies in no closed class.  A vertex seen to reach outside its component
    reads no more of its arcs: its component is not closed, and a new class
    further on holds a start of its own.  A finished component that reaches
    nothing outside is a closed class; the vertices of any other get a memo
    naming what they reach, either a sink or a member of a class the caller
    contracts into a new sink.

    Most starts stop at their first head; each such start first gets the
    memo the pass would give it, and the pass stops at it like at any other
    memo.  Only the other starts are walked, in order, if any are left.
    """
    walk: list = []
    for s in starts:
        x = heads[s][0]
        while up[x] != x:
            up[x] = x = up[up[x]]
        if x not in sinks:
            m = reach.get(x)
            if m is None or find(up, m) not in sinks:
                walk.append(s)
                continue
            x = m
        reach[s] = x
    if not walk:
        return walk
    index: dict = {}  # vertex the pass entered -> its preorder number
    low: dict = {}
    done: dict = {}  # vertex whose component is finished -> what it reaches
    out: dict = {}  # vertex on the stack -> what its component is seen to reach, or None
    path: list = []  # Tarjan's stack of unfinished vertices
    found: list = []
    for s in walk:
        if s in index:
            continue
        index[s] = low[s] = len(index)
        out[s] = None
        path.append(s)
        frames = [(s, iter(heads[s]))]
        while frames:
            v, it = frames[-1]
            if out[v] is None:
                for x in it:
                    while up[x] != x:
                        up[x] = x = up[up[x]]
                    if x not in index and x not in done:
                        if x in sinks:
                            done[x] = x
                        else:
                            m = reach.get(x)
                            if m is not None and find(up, m) in sinks:
                                done[x] = m
                            else:
                                index[x] = low[x] = len(index)
                                out[x] = None
                                path.append(x)
                                frames.append((x, iter(heads[x])))
                                break
                    if x in done:
                        out[v] = done[x]
                        break
                    if index[x] < low[v]:
                        low[v] = index[x]
                if frames[-1][0] != v:
                    continue
            frames.pop()
            if low[v] == index[v]:
                i = len(path) - 1
                while path[i] != v:
                    i -= 1
                comp = path[i:]
                del path[i:]
                if out[v] is None:
                    found.append(comp)
                    done.update(zip(comp, comp))
                else:
                    done.update(dict.fromkeys(comp, out[v]))
                    reach.update(dict.fromkeys(comp, out[v]))
            if frames:
                u = frames[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if out[u] is None:
                    out[u] = done.get(v, out[v])
    return found


def _expanded_adjacency(arcs: Iterable[Arc]) -> dict:
    adj: dict = {}
    for a in arcs:
        adj.setdefault(a.tail, []).append(a.head)
    return adj


class _GrowingClosedClasses:
    """Closed communicating classes of a digraph on the ids 0..n-1 that only
    gains arcs, found by the sweep's walk, ``_new_closed_classes``.

    As in the sweep, each closed class found becomes one vertex of a
    union-find, here the vertex of its largest part, so a state changes
    vertex O(log n) times while its class only grows (Hopcroft & Ullman
    1973).  The ``sinks``, vertices no arc leaves, are the closed classes.
    An arc inside its tail's vertex changes nothing; any other makes that
    vertex a start of the next walk, and a lost class if it was a sink.  A
    found class has no arc leaving it, so the heads of its parts are dropped.

    The label of state s is ``find(up, s)`` if that is a sink, else None;
    ``moved`` lists the states the last ``add`` relabelled, each with its
    former label.
    """

    def __init__(self, n: int):
        self.up = list(range(n))
        self.states: list = [[v] for v in range(n)]  # vertex -> the states it holds
        self.heads: dict = {}  # vertex with arcs leaving it -> their heads
        self.sinks = set(range(n))
        self.reach: dict = {}  # vertex -> a vertex it reached that was a sink then
        self.moved: list = []  # (state, former label) for each state the last add relabelled

    def add(self, arcs: Iterable[tuple]) -> tuple:
        """Add (tail, head) arcs; return the labels of the closed classes lost
        and gained.

        A lost label's class is no longer closed as it was: its states are
        transient now or lie in a larger class.  A gained label names a class
        that was not closed before.  The label of a gained class's largest
        part is in both lists when that part was a closed class.
        """
        up, states, heads, sinks, reach = self.up, self.states, self.heads, self.sinks, self.reach
        lost: list = []
        starts: dict = {}
        for t, h in arcs:
            v = find(up, t)
            if v == find(up, h):
                continue
            heads.setdefault(v, []).append(h)
            starts[v] = None
            if v in sinks:
                sinks.remove(v)
                lost.append(v)
        found = _new_closed_classes(up, starts, heads, sinks, reach) if starts else []
        if not found:  # every lost vertex is transient now
            self.moved = [(s, x) for x in lost for s in states[x]]
            return lost, found
        was_sink = set(lost)
        moved = self.moved = []
        gained: list = []
        for comp in found:
            r = max(comp, key=lambda x: len(states[x]))
            if r not in was_sink:
                moved += [(s, None) for s in states[r]]
            for x in comp:
                del heads[x]
                reach.pop(x, None)
                if x != r:
                    moved += [(s, x if x in was_sink else None) for s in states[x]]
                    up[x] = r
                    states[r] += states[x]
                    states[x] = None
            sinks.add(r)
            gained.append(r)
        for x in lost:
            if up[x] == x and x not in sinks:  # in no gained class: transient now
                moved += [(s, x) for s in states[x]]
        return lost, gained


class _PairedClosedClasses:
    """Two closed-class trackers over the same n states, ids 0..n-1, and
    which classes of either side have no class of the same states on the
    other.

    The class labelled v on side ``side`` is keyed ``side * n + v``.
    ``count[c0 * n + c1]`` is the number of states labelled c0 on side 0
    and c1 on side 1, kept as the trackers relabel states.  A class c with
    a state labelled d on the other side equals d exactly when that count
    is the size of both.  After each update only the classes it lost or
    gained, and the former partners of those, are checked again.
    """

    def __init__(self, n: int):
        self.n = n
        self.sides = (_GrowingClosedClasses(n), _GrowingClosedClasses(n))
        self.count: dict = {v * n + v: 1 for v in range(n)}
        # class -> its equal on the other side
        self.partner: dict = {side * n + v: (1 - side) * n + v for side in (0, 1) for v in range(n)}
        self.unmatched: set = set()  # classes with no partner

    def add(self, arcs0: list, arcs1: list) -> None:
        """Add (tail, head) arcs on the ids to side 0 and side 1."""
        n, sides = self.n, self.sides
        count, partner, unmatched = self.count, self.partner, self.unmatched
        check: set = set()  # classes to check again
        for side, arcs in ((0, arcs0), (1, arcs1)):
            tracker, other = sides[side], sides[1 - side]
            lost, gained = tracker.add(arcs)
            up, sinks, oup, osinks = tracker.up, tracker.sinks, other.up, other.sinks
            wt, wo = (n, 1) if side == 0 else (1, n)  # count key: label * wt + other label * wo
            for s, old in tracker.moved:
                d = find(oup, s)
                if d not in osinks:
                    continue
                d *= wo
                if old is not None:
                    count[old * wt + d] -= 1
                c = find(up, s)
                if c in sinks:
                    key = c * wt + d
                    count[key] = count.get(key, 0) + 1
            for v in (*lost, *gained):
                c = side * n + v
                check.add(c)
                old = partner.pop(c, None)
                if old is not None:
                    del partner[old]
                    check.add(old)
        # a class and its equal see the same counts, so they agree
        for c in check:
            unmatched.discard(c)
            side, v = divmod(c, n)
            tracker, other = sides[side], sides[1 - side]
            if c in partner or tracker.up[v] != v or v not in tracker.sinks:
                continue  # matched from the other side, or no longer a class
            d = find(other.up, v)
            key = v * n + d if side == 0 else d * n + v
            if d in other.sinks and len(other.states[d]) == len(tracker.states[v]) == count.get(key, 0):
                e = partner[c] = (1 - side) * n + d
                partner[e] = c
                unmatched.discard(e)
            else:
                unmatched.add(c)

    def differ(self) -> tuple:
        """Whether the nontrivial classes, and the absorbing vertices, differ."""
        if not self.unmatched:
            return False, False
        n, sides = self.n, self.sides
        sizes = {len(sides[c // n].states[c % n]) for c in self.unmatched}
        return max(sizes) >= 2, 1 in sizes


@dataclass(frozen=True)
class StatementResult:
    number: int
    ok: bool
    detail: str


@dataclass(frozen=True)
class ComparisonReport:
    graph: ChainGraph
    statements: tuple
    k_index: tuple
    alg1_gamma: tuple
    alg2_theta: tuple

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.statements)

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "kind": "comparison-report",
            "ok": self.ok,
            "statements": [
                {"number": s.number, "ok": s.ok, "detail": s.detail}
                for s in self.statements
            ],
            "k_index": list(self.k_index),
            "gamma": [format_rational(w) for w in self.alg1_gamma],
            "theta": [format_rational(w) for w in self.alg2_theta],
        }


@gc_paused
def compare_alg1_alg2(
    g: ChainGraph,
    tie_break: str = "lex",
    r1: Optional[Alg1Report] = None,
    r2: Optional[Alg2Report] = None,
) -> ComparisonReport:
    """Cross-check both sweeps on complete runs of the same graph.

    The four statements verified:
      1. the distinct exponent values coincide;
      2. each partial arc set of the single-arc sweep, expanded, is
         contained in the matching arc set of the simultaneous sweep;
      3. nontrivial closed classes of the expanded graphs coincide at the
         matching indices K_p;
      4. so do the absorbing vertices.
    """
    if r1 is None:
        r1 = run_algorithm1(g, tie_break=tie_break)
    if r2 is None:
        r2 = run_algorithm2(g)
    if r1.stop_reason != "bucket-empty" or r2.stop_reason not in ("bucket-empty", "full-closure"):
        raise GraphError("comparison needs complete runs of both sweeps")

    statements = []

    # One merge walk over gamma and theta: k_index[p] counts the gammas up
    # to theta_p, and ``distinct`` collects the distinct gammas in order.
    # Both lie on the grid of their graphs' weights, so it compares ints.
    scale = math.lcm(r1.graph.integer_weights[0], r2.graph.integer_weights[0])
    if any(scale % x.denominator for x in (*r1.gamma, *r2.theta)):
        raise InternalInvariantError(f"a threshold is off the weights' grid 1/{scale}")
    gamma, theta = ([x.numerator * (scale // x.denominator) for x in xs] for xs in (r1.gamma, r2.theta))
    if any(b < a for a, b in zip(theta, theta[1:])):
        raise InternalInvariantError("simultaneous sweep thresholds decrease")
    k_index: list = []
    distinct: list = []
    p = 0
    for i, x in enumerate(gamma):
        if distinct and not distinct[-1] < x:
            if x < distinct[-1]:
                raise InternalInvariantError("single-arc sweep thresholds decrease")
            continue
        while p < len(theta) and theta[p] < x:
            k_index.append(i)
            p += 1
        distinct.append(x)
    k_index += [len(gamma)] * (len(theta) - p)
    ok1 = distinct == theta
    statements.append(
        StatementResult(
            1,
            ok1,
            "distinct exponents "
            + ("agree" if ok1 else
               f"differ: {[str(Fraction(x, scale)) for x in distinct]} vs {list(map(str, r2.theta))}"),
        )
    )
    # both transfer lists on state ids; window p is ids2[ends[p - 1]:ends[p]]
    sid = {s: i for i, s in enumerate(g.states)}
    ids1, ids2 = ([(sid[a.tail], sid[a.head]) for a in r.transfers] for r in (r1, r2))
    ends = r2.tgraphs.ends

    # Statement 2: every earlier step lay inside an earlier (smaller) window,
    # so a step fits its window exactly when its own arc does.
    ok2 = True
    detail2 = "every partial arc set is contained in its matching window"
    window: set = set()
    prev = 0
    for p, kp in enumerate(k_index, start=1):
        window.update(ids2[ends[p - 1]:ends[p]])
        for k in range(prev + 1, kp + 1):
            if ids1[k - 1] not in window:
                ok2 = False
                extra = sorted(r1.tgraphs[k].pairs() - r2.tgraphs[p].pairs())
                detail2 = f"step {k} holds arcs outside window {p}: {extra}"
                break
        if not ok2:
            break
        prev = kp
    if ok2 and k_index and k_index[-1] != r1.K:
        ok2 = False
        detail2 = f"window index ends at {k_index[-1]} but the sweep took {r1.K} steps"
    statements.append(StatementResult(2, ok2, detail2))

    # Statements 3/4: follow both closed-class families window by window,
    # noting the last window where a class of one side has no equal on the
    # other; that window is then described from scratch.
    paired = _PairedClosedClasses(len(sid))
    last3 = last4 = None
    prev = 0
    for p, kp in enumerate(k_index, start=1):
        paired.add(ids1[prev:kp], ids2[ends[p - 1]:ends[p]])
        prev = kp
        nontrivial_differ, absorbing_differ = paired.differ()
        if nontrivial_differ:
            last3 = p
        if absorbing_differ:
            last4 = p

    def classes_at(p: int) -> tuple:
        kp = k_index[p - 1]
        cc1, cc2 = (
            closed_communicating_classes(_expanded_adjacency(t.arcs), vertices=g.states)
            for t in (r1.tgraphs[kp], r2.tgraphs[p])
        )
        return f"at window {p} (step {kp}): ", cc1, cc2

    ok3 = last3 is None
    detail3 = "nontrivial closed classes coincide at every matching index"
    if not ok3:
        where, cc1, cc2 = classes_at(last3)
        detail3 = (
            where
            + f"{[sorted(map(str, c)) for c in cc1.nontrivial]} vs "
            f"{[sorted(map(str, c)) for c in cc2.nontrivial]}"
        )
    ok4 = last4 is None
    detail4 = "absorbing vertices coincide at every matching index"
    if not ok4:
        where, cc1, cc2 = classes_at(last4)
        detail4 = where + f"{list(map(str, cc1.absorbing))} vs {list(map(str, cc2.absorbing))}"
    statements.append(StatementResult(3, ok3, detail3))
    statements.append(StatementResult(4, ok4, detail4))

    return ComparisonReport(
        graph=g,
        statements=tuple(statements),
        k_index=tuple(k_index),
        alg1_gamma=r1.gamma,
        alg2_theta=r2.theta,
    )
