"""Tie-tolerant sweep: release whole min-arc sets, contract closed classes.

Where the single-arc sweep breaks weight ties one arc at a time, this
variant releases every arc attaining the bucket minimum at once and then
contracts every nontrivial closed communicating class of the current
transition graph simultaneously.  It therefore needs no tie-breaking and is
the reference behaviour for graphs with weight symmetries.  Prefactors, if
present, are carried through unmodified and flagged as ignored: the class
update rule only preserves exponents.  The new closed classes of a step are
found on the contracted graph, from the vertices that step released, never
recomputed from scratch.

``compare_alg1_alg2`` checks the four consistency statements tying the two
sweeps together; the command-line ``compare`` subcommand turns a violation
into exit code 2 because it can only mean an implementation bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .alg1 import (
    Alg1Report,
    Bucket,
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
    strongly_connected_components,
    super_vertex_name,
    validate,
)
from .contraction import SuperVertex, WorkingGraph, vertex_order
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

    @property
    def super_vid(self) -> str:
        """Display name of the super-vertex this class became."""
        return super_vertex_name(self.member_states)


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

    def gamma_multiset(self) -> tuple:
        """The exponent multiset reconstructed as theta_p repeated m(p) times."""
        out = []
        for w, mult in zip(self.theta, self.multiplicity):
            out.extend([w] * mult)
        return tuple(out)

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

    wg = WorkingGraph(g)
    scale, vertex = wg.scale, wg.vertex
    if stop.kind == "class-covering":
        unknown = sorted({s for t in stop.targets for s in t if s not in wg.sid}, key=state_key)
        if unknown:
            raise GraphError(f"covering stop names states not in the graph: {unknown!r}")
        # per vertex id, whether it holds a state of each target set
        targets = stop.targets
        hits = tuple([s in t for s in vertex] for t in targets)
    bucket = Bucket(wg.rank)
    for v in range(g.n):
        for a in wg.min_arcs(v):
            bucket.insert(a)
    limit = None if stop.threshold is None else math.ceil(stop.threshold * scale)

    heads: dict = {}  # released current vertex -> head states of its released arcs
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

    while len(bucket):
        if stop.kind == "exponent-threshold" and bucket.peek_min_weight() >= limit:
            stop_reason = "exponent-threshold"
            break
        threshold, released = bucket.extract_all_min()
        p += 1
        step: dict = {}
        for a in released:
            step.setdefault(wg.vertex_of(a.tail), []).append(a.head)
        multiplicity.append(len(step))
        released = [wg.transfer(a) for a in released]
        w = released[0].weight
        theta.append(w)
        released_all.extend(released)
        ends.append(len(released_all))
        heads.update(step)
        sinks.difference_update(step)

        by_vids = {
            frozenset(vertex[v] for v in ids): ids
            for ids in _new_closed_classes(wg, step, heads, sinks, reach)
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
                both = [s for s in targets[0] & targets[1] if wg.sid[s] in sinks]
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
            for a in exits:
                bucket.insert(a)
            classes.append(
                ClassRecord(
                    index=len(classes) + 1,
                    step=p,
                    birth=w,
                    member_vids=cls,
                    vertex=vertex[sv],
                    main_state=vertex[sv].least,
                    exit_weight=Fraction(exits[0].weight, scale) if exits else None,
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


def _new_closed_classes(wg: WorkingGraph, starts, heads: dict, sinks: set, reach: dict) -> list:
    """The nontrivial closed classes reachable from ``starts``, each as a
    list of current vertices, found by one iterative Tarjan pass.

    The pass follows each released vertex's arcs, ``heads[v]`` resolved to
    current vertices.  It stops at a sink, and at a vertex whose memo in
    ``reach`` names a vertex that is still a sink: released arcs are never
    taken back and a contraction keeps every path, so that vertex still
    reaches the sink and lies in no closed class.  A vertex seen to reach
    outside its component reads no more of its arcs: its component is not
    closed, and a new class further on holds a released vertex of its own.
    A finished component that reaches nothing outside is a closed class;
    the vertices of any other get a memo naming what they reach, either a
    sink or a member of a class this step contracts into a new sink.
    """
    vertex_of, current = wg.vertex_of, wg.current
    index: dict = {}  # vertex the pass entered -> its preorder number
    low: dict = {}
    done: dict = {}  # vertex whose component is finished -> what it reaches
    out: dict = {}  # vertex on the stack -> what its component is seen to reach, or None
    path: list = []  # Tarjan's stack of unfinished vertices
    found: list = []
    for s in starts:
        if s in index:
            continue
        index[s] = low[s] = len(index)
        out[s] = None
        path.append(s)
        frames = [(s, iter(heads[s]))]
        while frames:
            v, it = frames[-1]
            if out[v] is None:
                for h in it:
                    x = vertex_of(h)
                    if x not in index and x not in done:
                        if x in sinks:
                            done[x] = x
                        else:
                            m = reach.get(x)
                            if m is not None and current(m) in sinks:
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


class _ClassLabel:
    """The label of one closed class of a ``_GrowingClosedClasses``: the
    states it holds, in the order they joined."""

    __slots__ = ("states",)

    def __init__(self, states: list):
        self.states = states


class _GrowingClosedClasses:
    """Closed communicating classes of a digraph that only gains arcs.

    ``compare_alg1_alg2`` follows the expanded arc sets of both sweeps with
    one each, so its check of the tie-tolerant sweep does not reuse the
    sweep's own class detection.

    Each closed class is a ``_ClassLabel``, and ``label`` maps every state
    of a closed class to it.  Every vertex starts as an absorbing class.  A
    closed class none of whose vertices gains an arc stays closed, and a new
    closed class holds the tail of a new arc.  So an update searches only
    from the new tails, treats each touched class as one node whose only
    ways out are its new arcs, and stops where the search meets an untouched
    class.  It also stops at a vertex already seen to reach one: arcs are
    never removed, so that vertex still reaches it, and cannot lie in a
    closed class while the class is untouched.

    A gained class keeps the label of its largest part and takes in the
    states of the others, smaller into larger (Hopcroft & Ullman 1973), so
    while a state's class only grows it changes label O(log n) times, and
    an update costs O(search nodes + relabelled states).  ``moved`` lists
    the states the last update relabelled, each with its former label (None
    when it lay in no closed class).
    """

    def __init__(self, vertices: Iterable[State]):
        self.adj: dict = {v: [] for v in vertices}
        self.label: dict = {v: _ClassLabel([v]) for v in self.adj}
        self.reaches: dict = {}  # vertex -> a vertex it reaches that was in a closed class
        self.moved: list = []  # (state, former label) for each state the last add relabelled

    def add(self, arcs: Iterable[Arc]) -> tuple:
        """Add arcs; return the labels of the closed classes lost and gained.

        A lost label's class is no longer closed as it was: its states are
        transient now or lie in a larger class.  A gained label names a class
        that was not closed before.  The label of a gained class's largest
        part is in both lists.
        """
        label, reaches = self.label, self.reaches
        touched: set = set()
        leaving: dict = {}  # touched class -> heads of its new arcs outside it
        starts: set = set()
        for a in arcs:
            self.adj[a.tail].append(a.head)
            cls = label.get(a.tail)
            if cls is None:
                starts.add(a.tail)
                continue
            touched.add(cls)
            starts.add(cls)
            if label.get(a.head) is not cls:
                leaving.setdefault(cls, []).append(a.head)

        # search nodes: touched classes and vertices outside closed classes
        succ: dict = {}
        leaky: set = set()  # nodes that reach an untouched class
        stack = list(starts)
        while stack:
            x = stack.pop()
            if x in succ:
                continue
            is_class = type(x) is _ClassLabel
            out = succ[x] = []
            for h in leaving.get(x, ()) if is_class else self.adj[x]:
                # h itself or what h is known to reach, if in an untouched class
                w = h if h in label else reaches.get(h)
                cls = label.get(w)
                if cls is None or cls in touched:
                    y = label.get(h, h)
                    out.append(y)
                    stack.append(y)
                else:
                    leaky.add(x)
                    if not is_class:
                        reaches[x] = w

        gained: list = []
        kept: set = set()  # touched classes whose new arcs all stay inside
        keepers: set = set()  # the labels in ``gained``, for lookups
        moved = self.moved = []
        for comp in strongly_connected_components(succ, list(succ)):
            if not comp.isdisjoint(leaky) or any(y not in comp for x in comp for y in succ[x]):
                continue
            cls = None  # the largest class in comp keeps its label
            for x in comp:
                if type(x) is _ClassLabel and (cls is None or len(x.states) > len(cls.states)):
                    cls = x
            if cls is not None and len(comp) == 1:
                kept.add(cls)
                continue
            if cls is None:
                cls = _ClassLabel([])
            keepers.add(cls)
            for x in comp:
                if x is cls:
                    continue
                if type(x) is _ClassLabel:
                    moved += [(s, x) for s in x.states]
                    label.update(dict.fromkeys(x.states, cls))
                    cls.states += x.states
                else:
                    moved.append((x, None))
                    label[x] = cls
                    cls.states.append(x)
            gained.append(cls)
        lost: list = []
        for cls in touched:
            if cls in kept:
                continue
            lost.append(cls)
            if label[cls.states[0]] is cls and cls not in keepers:
                moved += [(s, cls) for s in cls.states]  # in no gained class: transient now
                for s in cls.states:
                    del label[s]
        return lost, gained


class _PairedClosedClasses:
    """Two closed-class trackers over the same states, and which classes of
    either side have no class of the same states on the other.

    ``count[c1, c2]`` is the number of states labelled c1 on side 1 and c2
    on side 2, kept as the trackers relabel states.  A class c with a state
    labelled d on the other side equals d exactly when ``count[c, d]`` is
    the size of both.  After each update only the classes it lost or gained,
    and the former partners of those, are checked again.
    """

    def __init__(self, states):
        self.sides = (_GrowingClosedClasses(states), _GrowingClosedClasses(states))
        # both label dicts list the states in one order
        first, second = (side.label.values() for side in self.sides)
        self.count: dict = dict.fromkeys(zip(first, second), 1)
        self.partner: dict = dict(zip(first, second))  # class -> its equal on the other side
        self.partner.update(zip(second, first))
        self.unmatched: set = set()  # classes with no partner

    def add(self, arcs1: Iterable[Arc], arcs2: Iterable[Arc]) -> None:
        count, partner, unmatched = self.count, self.partner, self.unmatched
        labels = (self.sides[0].label, self.sides[1].label)
        check: dict = {}  # class to check again -> its side
        for side, arcs in ((0, arcs1), (1, arcs2)):
            tracker, other = self.sides[side], labels[1 - side]
            lost, gained = tracker.add(arcs)
            for s, old in tracker.moved:
                d = other.get(s)
                if d is None:
                    continue
                new = tracker.label.get(s)
                if old is not None:
                    count[(old, d) if side == 0 else (d, old)] -= 1
                if new is not None:
                    key = (new, d) if side == 0 else (d, new)
                    count[key] = count.get(key, 0) + 1
            for c in (*lost, *gained):
                check[c] = side
                old = partner.pop(c, None)
                if old is not None:
                    del partner[old]
                    check[old] = 1 - side
        # a class and its equal see the same counts, so they agree
        for c, side in check.items():
            unmatched.discard(c)
            first = c.states[0]
            if c in partner or labels[side].get(first) is not c:
                continue  # matched from the other side, or no longer a class
            d = labels[1 - side].get(first)
            size = len(c.states)
            key = (c, d) if side == 0 else (d, c)
            if d is not None and len(d.states) == size and count.get(key, 0) == size:
                partner[c], partner[d] = d, c
                unmatched.discard(d)
            else:
                unmatched.add(c)

    def differ(self) -> tuple:
        """Whether the nontrivial classes, and the absorbing vertices, differ."""
        if not self.unmatched:
            return False, False
        sizes = [len(c.states) for c in self.unmatched]
        return any(k >= 2 for k in sizes), any(k == 1 for k in sizes)


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
    gamma, theta = r1.gamma, r2.theta
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
    ok1 = tuple(distinct) == theta
    statements.append(
        StatementResult(
            1,
            ok1,
            "distinct exponents "
            + ("agree" if ok1 else f"differ: {list(map(str, distinct))} vs {list(map(str, theta))}"),
        )
    )
    windows = list(enumerate(zip(k_index, r2.transfers_by_step), start=1))

    # Statement 2: every earlier step lay inside an earlier (smaller) window,
    # so a step fits its window exactly when its own arc does.
    ok2 = True
    detail2 = "every partial arc set is contained in its matching window"
    window: set = set()
    prev = 0
    for p, (kp, released) in windows:
        window.update(a.pair() for a in released)
        for k in range(prev + 1, kp + 1):
            if r1.transfers[k - 1].pair() not in window:
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
    paired = _PairedClosedClasses(g.states)
    last3 = last4 = None
    prev = 0
    for p, (kp, released) in windows:
        paired.add(r1.transfers[prev:kp], released)
        prev = kp
        nontrivial_differ, absorbing_differ = paired.differ()
        if nontrivial_differ:
            last3 = p
        if absorbing_differ:
            last4 = p

    def classes_at(p: int) -> tuple:
        kp = k_index[p - 1]
        cc1 = closed_communicating_classes(
            _expanded_adjacency(r1.tgraphs[kp].arcs), vertices=g.states
        )
        cc2 = closed_communicating_classes(
            _expanded_adjacency(r2.tgraphs[p].arcs), vertices=g.states
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
