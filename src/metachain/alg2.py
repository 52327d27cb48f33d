"""Tie-tolerant sweep: release whole min-arc sets, contract closed classes.

Where the single-arc sweep breaks weight ties one arc at a time, this
variant releases every arc attaining the bucket minimum at once and then
contracts every nontrivial closed communicating class of the current
transition graph simultaneously.  It therefore needs no tie-breaking and is
the reference behaviour for graphs with weight symmetries.  Prefactors, if
present, are carried through unmodified and flagged as ignored: the class
update rule only preserves exponents.  The closed classes are followed as
arcs are released, by the same growing-graph tracker the comparison uses,
never recomputed from scratch.

``compare_alg1_alg2`` checks the four consistency statements tying the two
sweeps together; the command-line ``compare`` subcommand turns a violation
into exit code 2 because it can only mean an implementation bug.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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
from .contraction import WorkingGraph, vertex_key
from .graphio import arc_to_json, format_rational, state_to_json
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
    vertices it joined; a super-vertex among them is its member set."""

    index: int
    step: int
    birth: Fraction
    member_vids: frozenset
    member_states: frozenset
    main_state: State  # the least member state
    exit_weight: Optional[Fraction]

    # class_hierarchy reuses the cycle-forest builder, which looks this up
    @property
    def contracted(self) -> bool:
        return True

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

    def to_json_dict(self) -> dict:
        return {
            "schema": 3,
            "kind": "alg2-report",
            "n": self.n,
            "stop_reason": self.stop_reason,
            "P": self.P,
            "theta": [format_rational(w) for w in self.theta],
            "theta_float": [float(w) for w in self.theta],
            "multiplicity": list(self.multiplicity),
            "prefactors_ignored": self.prefactors_ignored,
            "final_closed_classes": [
                sorted((state_to_json(s) for s in c), key=str)
                for c in self.final_closed_classes
            ],
            "final_absorbing": [state_to_json(s) for s in self.final_absorbing],
            "transient_states": [state_to_json(s) for s in self.transient_states],
            "covering_class": None
            if self.covering_class is None
            else sorted((state_to_json(s) for s in self.covering_class), key=str),
            "transfers": [arc_to_json(a) for a in self.transfers],
            "tgraphs": self.tgraphs.to_json(),
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
    bucket = Bucket(wg.rank)
    for v in range(g.n):
        for a in wg.min_arcs(v):
            bucket.insert(a)
    limit = None if stop.threshold is None else math.ceil(stop.threshold * scale)

    tracker = _GrowingClosedClasses(g.states)
    theta: list = []
    multiplicity: list = []
    ends: list = [0]
    released_all: list = []
    classes: list = []
    main: dict = dict(enumerate(vertex))  # current vertex -> its least state
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
        multiplicity.append(len({wg.vertex_of(a.tail) for a in released}))
        released = [wg.transfer(a) for a in released]
        w = released[0].weight
        theta.append(w)
        released_all.extend(released)
        ends.append(len(released_all))

        # Every closed class of the last step was contracted to one vertex,
        # so the nontrivial closed classes of the contracted graph are
        # exactly the classes this step gained.  Each search node the tracker
        # joined into a class (a state, or a class contracted earlier) lies
        # in one current vertex.
        gained = tracker.add(released)[1]
        by_vids: dict = {}  # class as a set of current vertices -> (states, ids)
        for cls in gained:
            states = (next(iter(x)) if isinstance(x, frozenset) else x for x in tracker.nodes[cls])
            ids = {wg.vertex_of(s) for s in states}
            by_vids[frozenset(vertex[v] for v in ids)] = cls, ids
        nontrivial = list(by_vids)
        if len(nontrivial) > 1:
            nontrivial.sort(key=lambda c: sorted(map(vertex_key, c)))
        if stop.kind == "class-covering":
            offered = [by_vids[c][0] for c in nontrivial]
            # The absorbing current vertices are offered at step 1 only.  Later
            # on, an absorbing state was absorbing at step 1 too, and an
            # absorbing super-vertex holds the states of a class offered when
            # it closed; a set that missed the targets then misses them now.
            if p == 1:
                absorbing = (c for c in tracker.class_of.values() if len(c) == 1)
                offered += sorted(absorbing, key=lambda c: state_key(next(iter(c))))
            hit = stop.covering_class(offered)
            if hit is not None:
                covering = hit
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
            ids = by_vids[cls][1]
            sv = wg.contract(ids, threshold)
            n_current -= len(ids) - 1
            main[sv] = min((main[v] for v in ids), key=state_key)
            exits = wg.min_arcs(sv)
            for a in exits:
                bucket.insert(a)
            classes.append(
                ClassRecord(
                    index=len(classes) + 1,
                    step=p,
                    birth=w,
                    member_vids=cls,
                    member_states=vertex[sv],
                    main_state=main[sv],
                    exit_weight=Fraction(exits[0].weight, scale) if exits else None,
                )
            )

    theta = tuple(theta)
    tgraphs = TGraphs(g.states, tuple(released_all), tuple(ends), (Fraction(0),) + theta)
    final = set(tracker.class_of.values())
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
            sorted((next(iter(c)) for c in final if len(c) == 1), key=state_key)
        ),
        transient_states=tuple(
            s for s in sorted(g.states, key=state_key) if s not in tracker.class_of
        ),
        covering_class=covering,
        stop_reason=stop_reason,
        prefactors_ignored=g.has_prefactors,
    )


def _expanded_adjacency(arcs: Iterable[Arc]) -> dict:
    adj: dict = {}
    for a in arcs:
        adj.setdefault(a.tail, []).append(a.head)
    return adj


class _GrowingClosedClasses:
    """Closed communicating classes of a digraph that only gains arcs.

    It drives the tie-tolerant sweep, whose released arcs only grow, and
    follows both sweeps side by side in ``compare_alg1_alg2``.

    Every vertex starts as an absorbing class.  A closed class none of whose
    vertices gains an arc stays closed, and a new closed class holds the tail
    of a new arc.  So an update searches only from the new tails, treats each
    touched class as one node whose only ways out are its new arcs, and stops
    where the search meets an untouched class.  It also stops at a vertex
    already seen to reach one: arcs are never removed, so that vertex still
    reaches it, and cannot lie in a closed class while the class is untouched.
    """

    def __init__(self, vertices: Iterable[State]):
        self.adj: dict = {v: [] for v in vertices}
        self.class_of: dict = {v: frozenset((v,)) for v in self.adj}
        self.reaches: dict = {}  # vertex -> a vertex it reaches that was in a closed class
        self.nodes: dict = {}  # class gained by the last add -> its search nodes

    def add(self, arcs: Iterable[Arc]) -> tuple:
        """Add arcs; return the sets of closed classes lost and gained."""
        class_of, reaches = self.class_of, self.reaches
        touched: set = set()
        leaving: dict = {}  # touched class -> heads of its new arcs outside it
        starts: set = set()
        for a in arcs:
            self.adj[a.tail].append(a.head)
            cls = class_of.get(a.tail)
            if cls is None:
                starts.add(a.tail)
                continue
            touched.add(cls)
            starts.add(cls)
            if a.head not in cls:
                leaving.setdefault(cls, []).append(a.head)

        def untouched_reached(v):
            # v itself or what v is known to reach, if in an untouched class
            if v not in class_of:
                v = reaches.get(v)
            cls = class_of.get(v)
            return v if cls is not None and cls not in touched else None

        # search nodes: touched classes and vertices outside closed classes
        succ: dict = {}
        leaky: set = set()  # nodes that reach an untouched class
        stack = list(starts)
        while stack:
            x = stack.pop()
            if x in succ:
                continue
            heads = leaving.get(x, ()) if isinstance(x, frozenset) else self.adj[x]
            out = succ[x] = []
            for h in heads:
                w = untouched_reached(h)
                if w is None:
                    y = class_of.get(h, h)
                    out.append(y)
                    stack.append(y)
                else:
                    leaky.add(x)
                    if not isinstance(x, frozenset):
                        reaches[x] = w

        gained: set = set()
        nodes = self.nodes = {}
        for comp in strongly_connected_components(succ, list(succ)):
            if comp.isdisjoint(leaky) and all(y in comp for x in comp for y in succ[x]):
                cls = frozenset().union(*(x if isinstance(x, frozenset) else (x,) for x in comp))
                gained.add(cls)
                nodes[cls] = comp
        for cls in touched:
            for v in cls:
                del class_of[v]
        for cls in gained:
            class_of.update(dict.fromkeys(cls, cls))
        return touched - gained, gained - touched


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

    distinct = r1.distinct_gamma()
    ok1 = distinct == r2.theta
    statements.append(
        StatementResult(
            1,
            ok1,
            "distinct exponents "
            + ("agree" if ok1 else f"differ: {list(map(str, distinct))} vs {list(map(str, r2.theta))}"),
        )
    )

    gamma = r1.gamma
    if any(b < a for a, b in zip(gamma, gamma[1:])):
        raise InternalInvariantError("single-arc sweep thresholds decrease")
    k_index = [bisect_right(gamma, th) for th in r2.theta]
    if any(b < a for a, b in zip(k_index, k_index[1:])):
        raise InternalInvariantError("simultaneous sweep thresholds decrease")
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

    # Statements 3/4: follow both closed-class families window by window and
    # keep the classes that only one side holds; the last window where they
    # differ is then described from scratch.
    side1, side2 = _GrowingClosedClasses(g.states), _GrowingClosedClasses(g.states)
    one_sided: set = set()
    last3 = last4 = None
    prev = 0
    for p, (kp, released) in windows:
        for lost, gained in (side1.add(r1.transfers[prev:kp]), side2.add(released)):
            one_sided ^= lost
            one_sided ^= gained
        prev = kp
        if one_sided:
            if any(len(c) >= 2 for c in one_sided):
                last3 = p
            if any(len(c) == 1 for c in one_sided):
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
