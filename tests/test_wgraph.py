"""Spanning in-forest enumeration, sweep-based extraction and nesting."""

import dataclasses
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import metachain as mc
from conftest import arcs_by_pair, chain_graphs, successor_map, weak_nested_violations
from metachain.chain import state_key
from metachain.contraction import SuperVertex
from metachain.demos import tied_min_arc_chain, tied_optimum_chain, two_state_chain
from metachain import wgraph
from metachain.wgraph import (
    DEFAULT_ENUMERATION_CAP,
    WGraph,
    _decision_order,
    _iter_assignments,
    _make_wgraph,
)

F = Fraction


def enumerate_wgraphs(g, m: int, cap: int = DEFAULT_ENUMERATION_CAP):
    """Yield every w-graph of g with exactly m sinks (brute force)."""
    if not (1 <= m <= g.n):
        raise ValueError(f"sink count must lie in [1, {g.n}], got {m}")
    target_arcs = g.n - m
    scale, int_weight = g.integer_weights
    vertices = tuple(_decision_order(g))
    for chosen, total in _iter_assignments(g, cap, int_weight):
        if len(chosen) == target_arcs:
            yield _make_wgraph(g, vertices, chosen, Fraction(total, scale))


@pytest.fixture(scope="module")
def demo():
    g = mc.nested_cycle_chain()
    return g, mc.run_algorithm1(g)


@pytest.fixture(scope="module")
def demo_optima(demo):
    g, _ = demo
    return mc.enumerate_all_optimal(g)


def test_two_state_enumeration():
    g = two_state_chain()
    singles = sorted(enumerate_wgraphs(g, 1), key=lambda w: w.arcs)
    assert [w.arcs for w in singles] == [((1, 2),), ((2, 1),)]
    assert [w.sinks for w in singles] == [frozenset({2}), frozenset({1})]
    assert singles[0].total_weight == F(1)
    assert singles[0].m == 1
    full = list(enumerate_wgraphs(g, 2))
    assert len(full) == 1
    assert full[0].arcs == () and full[0].total_weight == 0


def test_two_state_unique_optimum():
    optima, unique = mc.enumerate_all_optimal(two_state_chain())[1]
    assert unique
    assert optima[0].arcs == ((1, 2),)
    assert optima[0].total_weight == F(1)


def test_wgraph_json_shape():
    optima, _ = mc.enumerate_all_optimal(two_state_chain())[1]
    doc = optima[0].to_json_dict()
    assert doc == {"sinks": [2], "arcs": [[1, 2]], "total_weight": "1"}


def test_successor_map():
    optima, _ = mc.enumerate_all_optimal(two_state_chain())[1]
    assert successor_map(optima[0]) == {1: 2}


def test_sink_count_bounds():
    g = two_state_chain()
    with pytest.raises(ValueError):
        list(enumerate_wgraphs(g, 0))
    with pytest.raises(ValueError):
        list(enumerate_wgraphs(g, 3))


def test_enumeration_cap():
    ring = [(i, i % 10 + 1, i) for i in range(1, 11)]
    g = mc.chain_graph(ring)
    with pytest.raises(mc.EnumerationCapError):
        list(enumerate_wgraphs(g, 1))
    assert len(list(enumerate_wgraphs(g, 1, cap=10))) == 10


def test_enumeration_refuses_a_chain_over_the_cap_before_any_work(monkeypatch):
    ring = mc.chain_graph([(i, i % 3000 + 1, 1) for i in range(1, 3001)])
    monkeypatch.setattr(wgraph, "_greedy_ceilings", lambda *args: pytest.fail("seeded the ceilings"))
    monkeypatch.setattr(wgraph, "_iter_assignments", lambda *args: pytest.fail("started the walk"))
    with pytest.raises(mc.EnumerationCapError, match="over 3000 vertices exceeds the cap of 9"):
        mc.enumerate_all_optimal(ring)


def test_walk_does_not_recurse_as_deep_as_the_chain():
    ring = mc.chain_graph([(i, i % 3000 + 1, 1) for i in range(1, 3001)])
    assert next(_iter_assignments(ring, cap=3000)) == ([], 0)  # every state a sink


def test_missing_sink_count_reported():
    # states 2 and 3 have no outgoing arcs, so one sink is impossible
    g = mc.chain_graph([(1, 2, 1)], states=[1, 2, 3])
    assert 1 not in mc.enumerate_all_optimal(g)


def test_demo_optimum_single_sink(demo_optima):
    optima, unique = demo_optima[1]
    assert unique
    w = optima[0]
    assert w.sinks == frozenset({7})
    assert w.arcs == ((1, 6), (2, 3), (3, 1), (4, 3), (5, 4), (6, 7))
    assert w.total_weight == F(291, 20)


def test_demo_optimum_two_sinks(demo_optima):
    optima, unique = demo_optima[2]
    assert unique
    w = optima[0]
    assert w.sinks == frozenset({2, 7})
    assert w.arcs == ((1, 2), (3, 1), (4, 3), (5, 4), (6, 5))
    assert w.total_weight == F(43, 4)


def test_demo_optimum_three_sinks(demo_optima):
    optima, unique = demo_optima[3]
    assert unique
    w = optima[0]
    assert w.sinks == frozenset({2, 6, 7})
    assert w.arcs == ((1, 2), (3, 1), (4, 3), (5, 4))
    assert w.total_weight == F(153, 20)


def test_demo_weight_gaps_match_exponents(demo, demo_optima):
    _, rep = demo
    value = {m: opt[0].total_weight for m, (opt, _u) in demo_optima.items()}
    for m in range(1, 7):
        assert value[m] - value[m + 1] == rep.delta[m - 1]
    assert value[7] == 0


def test_extraction_matches_enumeration(demo, demo_optima):
    _, rep = demo
    for m in range(1, 7):
        got = mc.extract_wgraph(rep, m)
        want = demo_optima[m][0][0]
        assert got == want


def test_extraction_expands_the_cycle_holding_the_sink():
    # State 2 sends both its arc 2->5 on the cycle {2,3,5} and that
    # cycle's exit arc 2->1.  The cycle {1,2,3,5} holds the sink 3, so its
    # expansion drops the exit arc 2->1 and keeps 2->5; a breadth-first
    # walk from the sink meets 2->1 first and returns a forest of 289.
    g = mc.chain_graph(
        [(1, 3, 49), (2, 1, 70), (2, 5, 52), (3, 2, 73),
         (4, 1, 94), (5, 3, 15), (5, 6, 86), (6, 4, 61)]
    )
    rep = mc.run_algorithm1(g)
    assert not rep.symmetry_detected
    got = mc.extract_wgraph(rep, 1)
    assert got.total_weight == 271
    assert got.arcs == ((1, 3), (2, 5), (4, 1), (5, 3), (6, 4))
    per_m = mc.enumerate_all_optimal(g)
    for m in range(1, g.n):
        optima, unique = per_m[m]
        assert unique
        assert mc.extract_wgraph(rep, m) == optima[0]


def unscreened_chain(rng, n_range=(4, 7)):
    """A Hamiltonian cycle plus random arcs up to 2n in all, with distinct
    integer weights 1..999; the sweep may still see repriced ties."""
    n = rng.randint(*n_range)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    pairs = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    seen = set(pairs)
    target = rng.randint(n, 2 * n)
    while len(pairs) < target:
        t, h = rng.randint(1, n), rng.randint(1, n)
        if t != h and (t, h) not in seen:
            seen.add((t, h))
            pairs.append((t, h))
    weights = rng.sample(range(1, 1000), len(pairs))
    return mc.chain_graph([(t, h, w) for (t, h), w in zip(pairs, weights)])


def test_extraction_matches_enumeration_on_unscreened_chains():
    rng = random.Random(3)
    checked = refused = 0
    for _ in range(3000):
        g = unscreened_chain(rng)
        rep = mc.run_algorithm1(g)
        if rep.symmetry_detected:
            with pytest.raises(mc.SymmetryError):
                mc.extract_wgraph(rep, 1)
            refused += 1
            continue
        per_m = mc.enumerate_all_optimal(g)
        for m in range(1, g.n):
            optima, unique = per_m[m]
            assert unique
            assert mc.extract_wgraph(rep, m) == optima[0], (g.arcs, m)
            checked += 1
    assert checked > 10000 and refused < 30


def distinct_chain(rng, n):
    """A Hamiltonian cycle plus random arcs, 3n in all, with distinct
    exponents on the 1/7 grid."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    pairs = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    seen = set(pairs)
    while len(pairs) < 3 * n:
        t, h = rng.randint(1, n), rng.randint(1, n)
        if t != h and (t, h) not in seen:
            seen.add((t, h))
            pairs.append((t, h))
    ks = rng.sample(range(7, 7 * 10**5), len(pairs))
    return mc.chain_graph([(t, h, F(k, 7)) for (t, h), k in zip(pairs, ks)])


def funnel_chain(rng, n):
    """A birth-death funnel draining into state 1 whose cycles nest n - 1
    levels deep."""
    arcs = []
    for i in range(1, n):
        down = F(7000 * i + rng.randint(1, 6999), 7)
        arcs.append((i, i + 1, down + F(rng.randint(1, 35000), 7)))
        arcs.append((i + 1, i, down))
    return mc.chain_graph(arcs)


def reference_forests(rep):
    """{m: optimal in-forest} for every m of a symmetry-free report, by
    Edmonds' expansion replayed from the report's transfers, cycles and
    sinks one m at a time, with plain loops and sets."""
    g = rep.graph
    by_pair = arcs_by_pair(g)
    states = sorted(g.states, key=state_key)
    rank = {s: i for i, s in enumerate(states)}
    n, pairs = len(states), [a.pair() for a in rep.transfers]
    tails = [rank[t] for t, _h in pairs]
    vid = {c.vertex: n + i for i, c in enumerate(rep.cycles)}
    parent, out = [-1] * (n + len(rep.cycles)), [-1] * (n + len(rep.cycles))
    current = list(range(n + len(rep.cycles)))  # each id -> the vertex that absorbed it
    closing = {c.step: c for c in rep.cycles}
    for i, t in enumerate(tails):
        while current[t] != t:
            t = current[t]
        out[t] = i
        if i + 1 in closing:
            c = closing[i + 1]
            for v in c.member_vids:
                v = vid[v] if isinstance(v, SuperVertex) else rank[v]
                parent[v] = current[v] = vid[c.vertex]
    forests = {}
    for m in range(1, n):
        k = rep.sinks[m].k
        r = sum(c.step <= k for c in rep.cycles)
        dropped, resolved = set(), set()
        for c in range(n + r - 1, n - 1, -1):
            if c in resolved:
                continue
            x = tails[out[c]] if 0 <= out[c] < k else rank[rep.cycles[c - n].main_state]
            while x != c:
                resolved.add(x)
                dropped.add(out[x])
                x = parent[x]
        kept = [pairs[i] for i in range(k) if i not in dropped]
        kept.sort(key=lambda p: (rank[p[0]], rank[p[1]]))
        sinks = [rep.sinks[1].z_star] + [rep.sinks[j].s_star for j in range(1, m)]
        forests[m] = WGraph(
            vertices=tuple(states),
            sinks=frozenset(sinks),
            arcs=tuple(kept),
            total_weight=sum((by_pair[p].weight for p in kept), F(0)),
        )
    return forests


@pytest.mark.parametrize(
    "g",
    [distinct_chain(random.Random(3), 250), funnel_chain(random.Random(1), 600)],
    ids=["distinct-250", "funnel-600"],
)
def test_large_chain_identity_and_weak_nesting(g):
    rep = mc.run_algorithm1(g)
    assert not rep.symmetry_detected
    ws = [mc.extract_wgraph(rep, m) for m in range(1, g.n)]
    assert ws == list(reference_forests(rep).values())
    later = F(0)  # W(n) = 0
    for m in range(g.n - 1, 0, -1):
        w = ws[m - 1]
        assert len(w.arcs) == g.n - m
        assert w.total_weight - later == rep.delta[m - 1], m
        later = w.total_weight
    for m in range(1, g.n - 1):
        assert weak_nested_violations(ws[m - 1], ws[m]) == [], m


@st.composite
def tie_free_chains(draw):
    """A 2-12-state chain: a Hamiltonian cycle plus random arcs with
    distinct exponents on the 1/7 grid, states named by ints, strs or both,
    sometimes with prefactors; and a tie-break rule."""
    n = draw(st.integers(2, 12))
    naming = draw(st.sampled_from(["int", "str", "mixed"]))
    names = [
        i if naming == "int" or (naming == "mixed" and i % 2) else f"s{i}" for i in range(1, n + 1)
    ]
    perm = draw(st.permutations(names))
    pairs = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    others = [(a, b) for a in names for b in names if a != b and (a, b) not in pairs]
    pairs += draw(st.lists(st.sampled_from(others), max_size=2 * n, unique=True)) if others else []
    ks = draw(st.lists(st.integers(1, 700), min_size=len(pairs), max_size=len(pairs), unique=True))
    kappas = draw(st.one_of(st.none(), st.lists(
        st.floats(0.5, 4.0), min_size=len(pairs), max_size=len(pairs))))
    arcs = [
        (t, h, F(k, 7)) if kappas is None else (t, h, F(k, 7), kappas[i])
        for i, ((t, h), k) in enumerate(zip(pairs, ks))
    ]
    return mc.chain_graph(arcs), draw(st.sampled_from(["lex", "revlex"]))


@settings(max_examples=200)
@given(tie_free_chains())
def test_extraction_matches_reference_expansion_on_random_chains(case):
    g, tie_break = case
    rep = mc.run_algorithm1(g, tie_break=tie_break)
    assume(not rep.symmetry_detected)
    want = reference_forests(rep)
    for m in range(1, g.n):
        got = mc.extract_wgraph(rep, m)
        assert got == want[m], m
        assert got.sinks.isdisjoint(t for t, _h in got.arcs)


def _shift_delta_1(rep):
    return dataclasses.replace(rep, delta=(rep.delta[0] + 1,) + rep.delta[1:])


def _move_last_sink(rep):
    sinks = dict(rep.sinks)
    sinks[1] = dataclasses.replace(sinks[1], z_star=1)  # state 1 sends an arc
    return dataclasses.replace(rep, sinks=sinks)


def _drop_first_cycle(rep):
    return dataclasses.replace(rep, cycles=rep.cycles[1:])


@pytest.mark.parametrize("tamper", [_shift_delta_1, _move_last_sink, _drop_first_cycle])
def test_extraction_checks_its_invariants(demo, tamper):
    _, rep = demo
    with pytest.raises(mc.InternalInvariantError):
        mc.extract_wgraph(tamper(rep), 1)


def test_extraction_checks_sinks_against_the_forest(demo):
    # s*(1) becomes a state that sends an arc in the 2-sink forest: the
    # arc count and the weight still agree, only the coverage check fails
    _, rep = demo
    tail = mc.extract_wgraph(rep, 2).arcs[0][0]
    sinks = dict(rep.sinks)
    sinks[1] = dataclasses.replace(sinks[1], s_star=tail)
    with pytest.raises(mc.InternalInvariantError, match="cover"):
        mc.extract_wgraph(dataclasses.replace(rep, sinks=sinks), 2)


def test_extraction_needs_every_sink_record_below_m(demo):
    _, rep = demo
    sinks = dict(rep.sinks)
    del sinks[2]
    gappy = dataclasses.replace(rep, sinks=sinks)
    assert mc.extract_wgraph(gappy, 1) == mc.extract_wgraph(rep, 1)
    for m in range(2, 7):
        with pytest.raises(mc.GraphError, match="stopped too early"):
            mc.extract_wgraph(gappy, m)


def test_extraction_respects_tie_flag():
    rep = mc.run_algorithm1(tied_min_arc_chain())
    with pytest.raises(mc.SymmetryError):
        mc.extract_wgraph(rep, 1)


def test_extraction_needs_enough_steps():
    rep = mc.run_algorithm1(
        mc.nested_cycle_chain(), stop=mc.StopCriterion.exponent_threshold(F(3))
    )
    with pytest.raises(mc.GraphError):
        mc.extract_wgraph(rep, 1)


def test_extraction_sink_count_bounds(demo):
    _, rep = demo
    with pytest.raises(ValueError):
        mc.extract_wgraph(rep, 0)
    with pytest.raises(ValueError):
        mc.extract_wgraph(rep, 7)


@pytest.mark.parametrize("m", [True, False, 2.0, 1.5, F(2), "2", None])
def test_extraction_refuses_a_sink_count_that_is_not_an_int(demo, m):
    _, rep = demo
    with pytest.raises(ValueError, match=r"sink count must lie in \[1, 6\]"):
        mc.extract_wgraph(rep, m)


def test_extraction_takes_a_numpy_sink_count(demo):
    _, rep = demo
    assert mc.extract_wgraph(rep, np.int64(2)) == mc.extract_wgraph(rep, 2)


def test_tied_optima_both_enumerated():
    optima, unique = mc.enumerate_all_optimal(tied_optimum_chain())[2]
    assert not unique
    assert sorted(w.arcs for w in optima) == [((2, 1),), ((2, 3),)]
    assert {w.total_weight for w in optima} == {F(1)}


def test_weak_nesting_on_demo(demo_optima):
    for m in range(1, 7):
        fine = demo_optima[m][0][0]
        coarse = demo_optima[m + 1][0][0]
        assert weak_nested_violations(fine, coarse) == []


def test_weak_nesting_rejects_non_consecutive(demo_optima):
    fine = demo_optima[1][0][0]
    coarse = demo_optima[3][0][0]
    problems = weak_nested_violations(fine, coarse)
    assert problems and "not consecutive" in problems[0]


def test_weak_nesting_flags_foreign_sinks(demo_optima):
    coarse = demo_optima[2][0][0]
    alien = WGraph(
        vertices=coarse.vertices,
        sinks=frozenset({3}),
        arcs=((1, 2), (2, 3), (4, 3), (5, 4), (6, 5), (7, 6)),
        total_weight=F(1),
    )
    problems = weak_nested_violations(alien, coarse)
    assert problems and "not contained" in problems[0]


def test_corpus_extraction_spot_check(oracle_corpus, oracle_extractions):
    (g, rep), (_, _, by_m) = oracle_corpus[0], oracle_extractions[0]
    per_m = mc.enumerate_all_optimal(g)
    for m in range(1, g.n):
        optima, unique = per_m[m]
        assert unique
        assert by_m[m] == optima[0]
        assert by_m[m].total_weight - per_m[m + 1][0][0].total_weight == rep.delta[m - 1]


@st.composite
def oracle_graphs(draw, max_n=9):
    """A 3-9-state chain, sometimes with every out-arc of one state dropped
    (that state is then a sink of every w-graph)."""
    g = draw(chain_graphs(min_n=3, max_n=max_n))
    if draw(st.booleans()):
        dead = draw(st.sampled_from(g.states))
        g = mc.chain_graph(
            [(a.tail, a.head, a.weight) for a in g.arcs if a.tail != dead], states=g.states
        )
    return g


def reference_optima(g, m):
    """The lightest w-graphs with m sinks from the full enumeration, in its
    order, and whether there is exactly one; None when there are none."""
    forests = list(enumerate_wgraphs(g, m))
    by_pair = arcs_by_pair(g)
    for w in forests:
        assert w.total_weight == sum(by_pair[p].weight for p in w.arcs)
    if not forests:
        return None
    low = min(w.total_weight for w in forests)
    optima = tuple(w for w in forests if w.total_weight == low)
    return optima, len(optima) == 1


@settings(max_examples=150)
@given(oracle_graphs())
def test_pruned_oracle_matches_full_enumeration(g):
    want = {m: reference_optima(g, m) for m in range(1, g.n + 1)}
    got = mc.enumerate_all_optimal(g)
    assert list(got.items()) == [(m, ref) for m, ref in want.items() if ref is not None]


def brute_force_optima(g) -> dict:
    """{m: (optima, unique)} from ``itertools.product`` over each state's
    sink-or-out-arc choices, states in decision order and arcs in head
    order, so the assignments come in the oracle's enumeration order; an
    assignment with a cycle, found by following successors, is skipped."""
    verts = sorted(g.states, key=state_key)
    by_pair = arcs_by_pair(g)
    choices = [[None] + sorted((a.head for a in g.out_arcs(v)), key=state_key) for v in verts]
    best: dict = {}
    for heads in itertools.product(*choices):
        succ = {v: h for v, h in zip(verts, heads) if h is not None}
        cyclic = False
        for v in succ:
            x = v
            for _ in range(g.n):
                x = succ.get(x)
                if x is None:
                    break
            else:
                cyclic = True  # still moving after n steps
        if cyclic:
            continue
        arcs = tuple(succ.items())
        w = WGraph(
            vertices=tuple(verts),
            sinks=frozenset(v for v in verts if v not in succ),
            arcs=arcs,
            total_weight=sum((by_pair[p].weight for p in arcs), Fraction(0)),
        )
        lightest = best.get(w.m)
        if lightest is None or w.total_weight < lightest[0].total_weight:
            best[w.m] = [w]
        elif w.total_weight == lightest[0].total_weight:
            lightest.append(w)
    return {m: (tuple(ws), len(ws) == 1) for m, ws in sorted(best.items())}


@st.composite
def small_oracle_graphs(draw):
    """A 3-7-state chain from ``oracle_graphs``; half of them get integer
    exponents 1..3 instead, so tied optima are common."""
    g = draw(oracle_graphs(max_n=7))
    if draw(st.booleans()):
        g = mc.chain_graph([(a.tail, a.head, draw(st.integers(1, 3))) for a in g.arcs], states=g.states)
    return g


@settings(max_examples=1000)
@given(small_oracle_graphs())
def test_pruned_oracle_matches_brute_force(g):
    assert mc.enumerate_all_optimal(g) == brute_force_optima(g)
