"""Simultaneous-release sweep: windows, class contraction, comparison."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import metachain as mc
from conftest import chain_graphs, derived_report_keys
from metachain.alg1 import HierarchyNode, hierarchy_json
from metachain.alg2 import (
    _expanded_adjacency,
    _GrowingClosedClasses,
    _PairedClosedClasses,
    class_hierarchy,
)
from metachain.chain import closed_communicating_classes, state_key, super_vertex_name
from metachain.contraction import SuperVertex, WorkingGraph, find
from metachain.demos import tied_min_arc_chain, tied_optimum_chain, two_state_chain
from metachain.graphio import format_rational, state_to_json

F = Fraction


@pytest.fixture(scope="module")
def integer_report():
    return mc.run_algorithm2(mc.nested_cycle_chain_integer())


def pairs_by_step(report):
    return [frozenset(a.pair() for a in step) for step in report.transfers_by_step]


def test_integer_windows(integer_report):
    rep = integer_report
    assert rep.theta == (F(1), F(3), F(4))
    assert rep.multiplicity == (2, 4, 2)
    assert rep.P == 3
    assert rep.stop_reason == "full-closure"
    assert pairs_by_step(rep) == [
        frozenset({(1, 2), (3, 1)}),
        frozenset({(2, 3), (4, 3), (5, 4), (5, 6), (6, 5), (6, 7)}),
        frozenset({(1, 5), (1, 6), (2, 5), (7, 6)}),
    ]


def test_integer_class_record(integer_report):
    assert len(integer_report.classes) == 1
    rec = integer_report.classes[0]
    assert rec.index == 1
    assert rec.step == 2
    assert rec.birth == F(3)
    assert rec.member_states == frozenset({1, 2, 3})
    assert super_vertex_name(rec.member_states) == "{1,2,3}"
    assert rec.exit_weight == F(4)
    assert rec.contracted and rec.main_state == 1


def test_integer_tgraph_windows(integer_report):
    tg = integer_report.tgraphs
    assert len(tg) == 4
    assert tg[0].arcs == ()
    assert len(tg[1].arcs) == 2 and tg[1].threshold == F(1)
    assert len(tg[2].arcs) == 8 and tg[2].threshold == F(3)
    assert len(tg[3].arcs) == 12 and tg[3].threshold == F(4)
    assert tg[2].pairs() == frozenset(
        {(1, 2), (2, 3), (3, 1), (4, 3), (5, 4), (5, 6), (6, 5), (6, 7)}
    )


def test_integer_final_classes(integer_report):
    rep = integer_report
    assert rep.final_closed_classes == (frozenset(range(1, 8)),)
    assert rep.final_absorbing == ()
    assert rep.transient_states == ()
    assert rep.covering_class is None


def test_gamma_multiset(integer_report):
    rep = integer_report
    assert tuple(w for w, mult in zip(rep.theta, rep.multiplicity) for _ in range(mult)) == (
        F(1), F(1), F(3), F(3), F(3), F(3), F(4), F(4)
    )


def test_json_shape(integer_report):
    doc = integer_report.to_json_dict()
    assert doc["kind"] == "alg2-report"
    assert doc["theta"] == ["1", "3", "4"]
    assert doc["multiplicity"] == [2, 4, 2]
    tree = doc["contraction_tree"]
    (cls,) = [node for node in tree if node["kind"] == "cycle"]
    assert [tree[c]["id"] for c in cls["children"]] == [1, 2, 3]
    assert "tgraphs" not in doc
    assert len(derived_report_keys(doc)["tgraphs"]) == 4


def test_class_hierarchy(integer_report):
    roots = class_hierarchy(integer_report)
    by_kind = {}
    for node in roots:
        by_kind.setdefault(node.kind, []).append(node)
    assert sorted(n.state for n in by_kind["state"]) == [4, 5, 6, 7]
    (cls,) = by_kind["cycle"]
    assert {c.state for c in cls.children} == {1, 2, 3}


def test_distinct_weights_collapse_to_single_arc_windows():
    g = mc.nested_cycle_chain()
    r1 = mc.run_algorithm1(g)
    r2 = mc.run_algorithm2(g)
    assert r2.theta == r1.gamma  # all nine values distinct
    assert r2.multiplicity == (1,) * 9
    for p in range(len(r2.tgraphs)):
        assert r2.tgraphs[p].pairs() == r1.tgraphs[p].pairs()


def test_class_update_rule():
    g = mc.chain_graph(
        [(1, 2, 2), (1, 3, 2), (2, 1, 2), (3, 1, 2), (2, 4, 3), (4, 1, 1)]
    )
    wg = WorkingGraph(g)
    vids = {wg.vertex_of(s) for s in (1, 2, 3)}
    for v in vids:
        wg.min_arcs(v)
    assert {wg.vertex[v]: F(wg.u_min[v], wg.scale) for v in vids} == {1: F(2), 2: F(2), 3: F(2)}
    sv = wg.contract(vids, 2 * wg.scale)
    (exit_id,) = wg.min_arcs(sv)
    assert wg.min_arcs(sv) == [exit_id]  # reading does not take the arc
    assert wg.arcs[exit_id].pair() == (2, 4)
    assert wg.transfer(exit_id, wg.u_min[sv]).weight == F(3)  # 3 - 2 + 2
    assert wg.min_arcs(sv) == []


def test_order_independence():
    g = mc.chain_graph(
        [(1, 2, 1), (2, 1, 1), (3, 4, 1), (4, 3, 1), (2, 3, 3), (4, 1, 3)]
    )
    plain = mc.run_algorithm2(g)
    flipped = mc.run_algorithm2(g, _class_order=lambda cs: list(reversed(cs)))
    assert plain.theta == flipped.theta == (F(1), F(3))
    assert plain.multiplicity == flipped.multiplicity == (4, 2)
    assert pairs_by_step(plain) == pairs_by_step(flipped)
    assert {c.member_states for c in plain.classes} == {
        frozenset({1, 2}), frozenset({3, 4})
    }
    assert {c.member_states for c in plain.classes} == {
        c.member_states for c in flipped.classes
    }


def test_order_hook_must_permute():
    g = mc.chain_graph(
        [(1, 2, 1), (2, 1, 1), (3, 4, 1), (4, 3, 1), (2, 3, 3), (4, 1, 3)]
    )
    with pytest.raises(ValueError):
        mc.run_algorithm2(g, _class_order=lambda cs: cs[:1])


def test_covering_stop():
    rep = mc.run_algorithm2(
        mc.nested_cycle_chain_integer(),
        stop=mc.StopCriterion.class_covering({1}, {3}),
    )
    assert rep.stop_reason == "class-covering"
    assert rep.covering_class == frozenset({1, 2, 3})
    assert rep.P == 2
    assert rep.classes == ()  # stopped before contracting the covering class


def test_covering_stop_whole_graph():
    rep = mc.run_algorithm2(
        mc.nested_cycle_chain_integer(),
        stop=mc.StopCriterion.class_covering({1}, {7}),
    )
    assert rep.stop_reason == "class-covering"
    assert rep.covering_class == frozenset(range(1, 8))
    assert rep.P == 3


def test_threshold_stop():
    rep = mc.run_algorithm2(
        mc.nested_cycle_chain_integer(),
        stop=mc.StopCriterion.exponent_threshold(F(4)),
    )
    assert rep.stop_reason == "exponent-threshold"
    assert rep.theta == (F(1), F(3))


def test_inapplicable_stop_rejected():
    with pytest.raises(ValueError):
        mc.run_algorithm2(
            mc.nested_cycle_chain_integer(), stop=mc.StopCriterion.bucket_size_one()
        )


def test_validation_gate():
    g = mc.chain_graph([(1, 2, 1), (1, 3, 2)], states=[1, 2, 3])
    with pytest.raises(mc.ValidationFailure):
        mc.run_algorithm2(g)


def test_prefactors_carried_but_flagged():
    plain = mc.nested_cycle_chain_integer()
    dressed = mc.chain_graph([(a.tail, a.head, a.weight, 1.0) for a in plain.arcs])
    rep = mc.run_algorithm2(dressed)
    assert rep.prefactors_ignored
    assert rep.theta == (F(1), F(3), F(4))
    assert not mc.run_algorithm2(plain).prefactors_ignored


def test_comparison_on_integer_fixture(integer_report):
    cmp = mc.compare_alg1_alg2(mc.nested_cycle_chain_integer(), r2=integer_report)
    assert cmp.ok
    assert [s.number for s in cmp.statements] == [1, 2, 3, 4]
    assert all(s.ok for s in cmp.statements)
    assert cmp.k_index == (2, 6, 10)
    assert cmp.alg2_theta == (F(1), F(3), F(4))
    assert len(cmp.alg1_gamma) == 10


def test_comparison_both_tie_breaks():
    g = tied_min_arc_chain()
    for tb in ("lex", "revlex"):
        cmp = mc.compare_alg1_alg2(g, tie_break=tb)
        assert cmp.ok, [s.detail for s in cmp.statements if not s.ok]
        assert cmp.alg2_theta == (F(1), F(2))


def test_comparison_needs_complete_runs():
    g = mc.nested_cycle_chain_integer()
    r1 = mc.run_algorithm1(g, stop=mc.StopCriterion.exponent_threshold(F(4)))
    with pytest.raises(mc.GraphError):
        mc.compare_alg1_alg2(g, r1=r1)


def test_comparison_json(integer_report):
    cmp = mc.compare_alg1_alg2(mc.nested_cycle_chain_integer(), r2=integer_report)
    doc = cmp.to_json_dict()
    assert doc["kind"] == "comparison-report"
    assert doc["ok"] is True
    assert doc["theta"] == ["1", "3", "4"]
    assert doc["k_index"] == [2, 6, 10]


def test_comparison_corpus_spot_check(oracle_corpus):
    for g, r1 in oracle_corpus[:10]:
        cmp = mc.compare_alg1_alg2(g, r1=r1)
        assert cmp.ok, [s.detail for s in cmp.statements if not s.ok]


def test_covering_targets_may_overlap():
    # the absorbing vertex 2 alone meets both overlapping target sets
    g = mc.chain_graph([(1, 2, 1), (2, 1, 2)])
    rep = mc.run_algorithm2(g, stop=mc.StopCriterion.class_covering({1, 2}, {2}))
    assert rep.stop_reason == "class-covering"
    assert rep.covering_class == frozenset({2})
    assert rep.P == 1
    # both the new class {1,2} and the absorbing 3 qualify: classes come first
    g = mc.chain_graph([(1, 2, 1), (2, 1, 1), (2, 3, 2), (3, 1, 3)])
    rep = mc.run_algorithm2(g, stop=mc.StopCriterion.class_covering({1, 3}, {2, 3}))
    assert rep.covering_class == frozenset({1, 2})
    assert rep.P == 1


@st.composite
def sweep_cases(draw):
    """A 3-9-state chain and a stop: none, a threshold among its weights, or
    a covering pair whose target sets may overlap."""
    g = draw(chain_graphs(min_n=3))
    kind = draw(st.sampled_from(["bucket-empty", "threshold", "covering"]))
    if kind == "bucket-empty":
        return g, None
    if kind == "threshold":
        weights = sorted({a.weight for a in g.arcs})
        return g, mc.StopCriterion.exponent_threshold(draw(st.sampled_from(weights)))
    subsets = st.sets(st.sampled_from(g.states), min_size=1, max_size=g.n)
    a = draw(subsets)
    b = draw(subsets)
    if draw(st.booleans()):
        b = b | {draw(st.sampled_from(sorted(a)))}
    return g, mc.StopCriterion.class_covering(a, b)


def _closed_at(g, rep, step):
    return closed_communicating_classes(
        _expanded_adjacency(rep.tgraphs[step].arcs), vertices=g.states
    )


def _documented_order(rep, step, cc):
    """The closed classes of the graph contracted before ``step``: nontrivial
    classes by their sorted current vertices, then absorbing vertices."""
    vid = {s: s for s in rep.graph.states}
    for rec in rep.classes:  # creation order: an outer class comes later
        if rec.step < step:
            vid.update(dict.fromkeys(rec.member_states, super_vertex_name(rec.member_states)))
    classes = list(cc.nontrivial) + [frozenset((s,)) for s in cc.absorbing]
    vids = [frozenset(vid[s] for s in c) for c in classes]
    nontrivial = sorted(
        (c for c, v in zip(classes, vids) if len(v) >= 2),
        key=lambda c: sorted(state_key(vid[s]) for s in c),
    )
    absorbing = sorted(
        (v for v in vids if len(v) == 1), key=lambda v: state_key(next(iter(v)))
    )
    members = {v: frozenset(s for s in rep.graph.states if vid[s] in v) for v in absorbing}
    return nontrivial + [members[v] for v in absorbing]


def covering_class(stop, classes):
    """First class (expanded state sets) meeting both targets, if any."""
    if stop.kind != "class-covering":
        return None
    a, b = stop.targets
    for c in classes:
        if c & a and c & b:
            return c
    return None


@st.composite
def tied_cases(draw):
    """A chain of 2-12 int and str states, weights 1..4 in halves so ties
    are common, and a stop of any kind.  The states of a cycle form the one
    closed class; each other state has a first arc into that cycle or to a
    state before it, so it is transient."""
    states = draw(
        st.lists(st.one_of(st.integers(0, 30), st.sampled_from(["1", "a", "10", "{1,2}"])),
                 min_size=2, max_size=12, unique=True)
    )
    k = draw(st.integers(2, len(states)))
    core, rest = states[:k], states[k:]
    pairs = {(core[i], core[(i + 1) % k]) for i in range(k)}
    pairs.update((s, draw(st.sampled_from(states[: k + i]))) for i, s in enumerate(rest))
    pairs.update(
        (t, h)
        for t, h in draw(st.lists(st.tuples(st.sampled_from(states), st.sampled_from(states)),
                                  max_size=2 * len(states)))
        if t != h and not (t in core and h in rest)
    )
    arcs = [(t, h, F(draw(st.integers(2, 8)), 2)) for t, h in sorted(pairs, key=str)]
    g = mc.chain_graph(arcs, states=states)
    kind = draw(st.sampled_from(["bucket-empty", "threshold", "covering", "custom"]))
    if kind == "bucket-empty":
        return g, None
    if kind == "threshold":
        return g, mc.StopCriterion.exponent_threshold(draw(st.sampled_from([w for _t, _h, w in arcs])))
    if kind == "custom":
        size = draw(st.integers(1, len(arcs)))
        return g, mc.StopCriterion.custom(lambda tg, _w: len(tg.arcs) >= size)
    subsets = st.sets(st.sampled_from(states), min_size=1, max_size=len(states))
    return g, mc.StopCriterion.class_covering(draw(subsets), draw(subsets))


@settings(max_examples=500)
@given(st.one_of(sweep_cases(), tied_cases()))
# 1 and 2 close at step 1, the class leaks to 3 at step 2 and 3 is released last
@example((mc.chain_graph([(1, 2, 1), (2, 1, 1), (2, 3, 2), (3, 1, 3)]), None))
# a funnel: 2 stops at the sink 1, 3 and 4 at 2's memo 1; once 1 is
# released that memo is stale, so 1 and then {1,2} walk to the class
@example((mc.chain_graph([(1, 2, 5), (2, 1, 1), (2, 3, 6), (3, 2, 2), (3, 4, 7), (4, 3, 3)]), None))
# one step: 1 stops at the sink 2 and 4 at 1's fresh memo, both before the
# walk from 3 reaches 4
@example((mc.chain_graph([(1, 2, 1), (3, 4, 1), (4, 1, 1), (4, 3, 1), (2, 3, 2)]), None))
def test_closed_classes_match_a_fresh_scc_pass(case):
    """The sweep finds closed classes on the contracted graph; each step's
    records must be the nontrivial closed classes of that step's expanded
    T-graph that the step before did not have, and the final classes those
    of the last T-graph, all found from scratch."""
    g, stop = case
    rep = mc.run_algorithm2(g, stop=stop)
    left_open = rep.stop_reason in ("class-covering", "custom", "full-closure")
    prev: set = set()
    for step in range(1, rep.P + 1):
        now = set(_closed_at(g, rep, step).nontrivial)
        records = {rec.member_states for rec in rep.classes if rec.step == step}
        assert len(records) == sum(rec.step == step for rec in rep.classes)
        assert records == (set() if left_open and step == rep.P else now - prev), step
        prev = now
    final = _closed_at(g, rep, rep.P)
    assert rep.final_closed_classes == final.nontrivial
    assert rep.final_absorbing == final.absorbing
    closed = set().union(*final.nontrivial, final.absorbing)
    assert rep.transient_states == tuple(
        s for s in sorted(g.states, key=state_key) if s not in closed
    )
    if stop is None or stop.kind != "class-covering":
        return
    for step in range(1, rep.P + 1):
        first = covering_class(stop, _documented_order(rep, step, _closed_at(g, rep, step)))
        if step < rep.P:
            assert first is None
        else:
            assert rep.covering_class == first
            assert (first is None) == (rep.stop_reason != "class-covering")


def schema_2_classes(rep):
    """The ``"classes"`` list a schema-2 alg2 report wrote, from the records."""
    return [
        {
            "index": rec.index,
            "step": rec.step,
            "birth": format_rational(rec.birth),
            "members": sorted((state_to_json(s) for s in rec.member_states), key=str),
            "exit": None if rec.exit_weight is None else format_rational(rec.exit_weight),
        }
        for rec in rep.classes
    ]


def classes_from_tree(doc):
    """The same list read back from a schema-3 or 4 report: a class is a cycle
    node of the contraction tree, its members are the states below it, and
    its step is the position of its birth in ``theta``."""
    step_of = {w: p for p, w in enumerate(doc["theta"], start=1)}
    below: list = []  # per tree node: the states under it
    classes = []
    for node in doc["contraction_tree"]:
        if node["kind"] == "state":
            below.append([node["id"]])
            continue
        below.append([s for c in node["children"] for s in below[c]])
        classes.append(
            {
                "index": node["index"],
                "step": step_of[node["birth"]],
                "birth": node["birth"],
                "members": sorted(below[-1], key=str),
                "exit": node["exit"],
            }
        )
    return sorted(classes, key=lambda c: c["index"])


def _written(rep):
    return json.loads(mc.dump_json(rep.to_json_dict()))


@settings(max_examples=200)
@given(sweep_cases())
def test_schema_3_report_holds_every_class(case):
    g, stop = case
    rep = mc.run_algorithm2(g, stop=stop)
    doc = _written(rep)
    assert doc["schema"] == 4 and "classes" not in doc
    assert classes_from_tree(doc) == schema_2_classes(rep)


@pytest.mark.parametrize(
    "make",
    [
        mc.nested_cycle_chain,
        mc.nested_cycle_chain_integer,
        two_state_chain,
        tied_min_arc_chain,
        tied_optimum_chain,
    ],
)
@pytest.mark.parametrize("stop", [None, mc.StopCriterion.class_covering({1}, {2})])
def test_schema_3_demo_reports_hold_every_class(make, stop):
    rep = mc.run_algorithm2(make(), stop=stop)
    assert classes_from_tree(_written(rep)) == schema_2_classes(rep)


@st.composite
def arc_batches(draw):
    """2-12 states, ints and strings, and their arcs in random batches."""
    states = draw(
        st.lists(st.one_of(st.integers(0, 30), st.sampled_from(["1", "a", "{1,2}"])),
                 min_size=2, max_size=12, unique=True)
    )
    pairs = [(t, h) for t in states for h in states if t != h]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * len(states)))
    sizes = draw(st.lists(st.integers(1, 4), min_size=len(arcs), max_size=len(arcs)))
    batches, i = [], 0
    for k in sizes:
        if i >= len(arcs):
            break
        batches.append(arcs[i:i + k])
        i += k
    return states, batches


@settings(max_examples=300)
@given(arc_batches())
# {1,2} closes, then leaks into the untouched absorbing 3 and turns transient
@example(([1, 2, 3], [[(1, 2), (2, 1)], [(2, 3)]]))
# the search from 3 finds that 1 reaches the absorbing 2; the one from 4
# then stops at 1
@example(([1, 2, 3, 4], [[(1, 2)], [(3, 1)], [(4, 1)]]))
# 1, which already has an arc leaving it, gains another in the batch in
# which the absorbing 2 and 3 gain theirs
@example(([1, 2, 3], [[(1, 2)], [(1, 3), (2, 1), (3, 1)]]))
# 1 and 3 stop at their first heads, the sink 2
@example(([1, 2, 3], [[(1, 2)], [(3, 2)]]))
# 1's first head 2 has the memo 3, still a sink
@example(([1, 2, 3], [[(2, 3)], [(1, 2)]]))
# 2's memo 3 goes stale inside the class {3,4}, which then leaks to 5:
# 5 and 1 must walk, and find the class of all five
@example(([1, 2, 3, 4, 5], [[(2, 3)], [(3, 4), (4, 3)], [(4, 5)], [(5, 1), (1, 2)]]))
# 1 stops at the sink 2 before the walk from 3 reaches it through 4
@example(([1, 2, 3, 4], [[(1, 2), (3, 4), (4, 3), (4, 1)]]))
def test_tracker_matches_a_fresh_scc_pass_after_every_add(case):
    states, batches = case
    sid = {s: i for i, s in enumerate(states)}
    tracker = _GrowingClosedClasses(len(states))
    ids = range(len(states))

    def label(i):
        v = find(tracker.up, i)
        return v if v in tracker.sinks else None

    def held(c):
        return frozenset(states[i] for i in tracker.states[c])

    adj = {s: [] for s in states}
    prev = {frozenset((s,)) for s in states}
    for batch in batches:
        before = {i: label(i) for i in ids}
        snapshot = {c: held(c) for c in before.values() if c is not None}
        lost, gained = tracker.add([(sid[t], sid[h]) for t, h in batch])
        for t, h in batch:
            adj[t].append(h)
        fresh = closed_communicating_classes(adj, vertices=states)
        live = {label(i) for i in ids} - {None}
        now = {held(c) for c in live}
        assert len(now) == len(live)
        assert now == set(fresh.nontrivial) | {frozenset((s,)) for s in fresh.absorbing}
        assert all(label(i) == c for c in live for i in tracker.states[c])
        assert {snapshot[c] for c in lost} == prev - now
        assert {held(c) for c in gained} == now - prev
        # every relabelled state is listed once, with its former label
        changed = {i for i in ids if before[i] != label(i)}
        assert sorted(i for i, _old in tracker.moved) == sorted(changed)
        assert all(before[i] == old for i, old in tracker.moved)
        prev = now


@st.composite
def paired_streams(draw):
    """Two streams of arc batches over the same 2-9 states: equal, or the
    same arcs batched otherwise, or one arc more, less or moved."""
    n = draw(st.integers(2, 9))
    pairs = [(t, h) for t in range(n) for h in range(n) if t != h]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n))

    def batched(arcs):
        sizes = draw(st.lists(st.integers(1, 4), min_size=len(arcs), max_size=len(arcs)))
        ends = [e for e in itertools.accumulate(sizes) if e < len(arcs)]
        return [arcs[a:b] for a, b in zip([0, *ends], [*ends, len(arcs)]) if a < b]

    first = batched(arcs)
    how = draw(st.sampled_from(["equal", "rebatched", "one more", "one less", "moved"]))
    if how == "equal":
        return n, first, [list(b) for b in first], True
    other = list(arcs)
    spare = [q for q in pairs if q not in arcs]
    if how == "one more" and spare:
        other.insert(draw(st.integers(0, len(other))), draw(st.sampled_from(spare)))
    elif how == "one less" and other:
        del other[draw(st.integers(0, len(other) - 1))]
    elif how == "moved" and other:
        q = other.pop(draw(st.integers(0, len(other) - 1)))
        other.insert(draw(st.integers(0, len(other))), q)
    return n, first, batched(other), False


@settings(max_examples=400)
@given(paired_streams())
# {0,1} closes on side 0 a batch before side 1
@example((3, [[(0, 1), (1, 0)], [(1, 2)]], [[(0, 1)], [(1, 0), (1, 2)]], False))
# the same class on both sides, built in other orders
@example((3, [[(0, 1), (1, 2), (2, 0)]], [[(2, 0)], [(1, 2)], [(0, 1)]], False))
def test_paired_classes_differ_as_fresh_scc_passes_do(case):
    n, first, second, equal = case
    paired = _PairedClosedClasses(n)
    adj = ({v: [] for v in range(n)}, {v: [] for v in range(n)})
    for batch0, batch1 in itertools.zip_longest(first, second, fillvalue=[]):
        paired.add(batch0, batch1)
        for side, batch in ((0, batch0), (1, batch1)):
            for t, h in batch:
                adj[side][t].append(h)
        cc0, cc1 = (closed_communicating_classes(a, vertices=range(n)) for a in adj)
        expected = (set(cc0.nontrivial) != set(cc1.nontrivial), cc0.absorbing != cc1.absorbing)
        assert paired.differ() == expected
        if equal:
            assert expected == (False, False)


NAMES = [1, "1", "10", "{1", "1,2", "{1,2}", 2, "2", "{1,", "{10", "a", "{1,2", 10]


def name_key(v):
    """Sort key of a vertex by its full name, a state before a super-vertex
    of the same name."""
    if isinstance(v, SuperVertex):
        return (*state_key(super_vertex_name(v.states())), 1)
    return (*state_key(v), 0)


def reference_tree(states, records):
    """The contraction tree with every sibling list sorted by full names."""
    pending: dict = {}
    consumed: set = set()
    for rec in records:
        consumed.update(rec.member_vids)
        children = tuple(
            pending.pop(v) if isinstance(v, SuperVertex) else HierarchyNode("state", v, None, ())
            for v in sorted(rec.member_vids, key=name_key)
        )
        pending[rec.vertex] = HierarchyNode("cycle", None, rec, children)
    roots = list(pending.values())
    roots += [
        HierarchyNode("state", s, None, ())
        for s in sorted(states, key=state_key)
        if s not in consumed
    ]
    return hierarchy_json(roots)


@settings(max_examples=200)
@given(chain_graphs(min_n=3), st.permutations(NAMES))
def test_sibling_order_matches_full_names(g, names):
    """States named 1 and "1", "10", "{1", "1,2" or "{1,2}" share the
    prefix "{" + least state + "," of super-vertex names; children and
    same-step classes must still come in full-name order."""
    h = mc.chain_graph([(names[a.tail - 1], names[a.head - 1], a.weight) for a in g.arcs])
    for tie_break in ("lex", "revlex"):
        r1 = mc.run_algorithm1(h, tie_break=tie_break)
        assert r1.to_json_dict()["contraction_tree"] == reference_tree(h.states, r1.cycles)
    r2 = mc.run_algorithm2(h)
    assert r2.to_json_dict()["contraction_tree"] == reference_tree(h.states, r2.classes)
    for step in {rec.step for rec in r2.classes}:
        firsts = [min(map(name_key, rec.member_vids)) for rec in r2.classes if rec.step == step]
        assert firsts == sorted(firsts)
