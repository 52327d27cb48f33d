"""Spanning in-forest enumeration, sweep-based extraction and nesting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metachain as mc
from conftest import chain_graphs
from metachain.demos import tied_min_arc_chain, tied_optimum_chain, two_state_chain
from metachain.wgraph import WGraph, enumerate_optimal, enumerate_wgraphs, weak_nested_violations

F = Fraction


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
    optima, unique = enumerate_optimal(two_state_chain(), 1)
    assert unique
    assert optima[0].arcs == ((1, 2),)
    assert optima[0].total_weight == F(1)


def test_wgraph_json_shape():
    optima, _ = enumerate_optimal(two_state_chain(), 1)
    doc = optima[0].to_json_dict()
    assert doc == {"sinks": [2], "arcs": [[1, 2]], "total_weight": "1"}


def test_successor_map():
    optima, _ = enumerate_optimal(two_state_chain(), 1)
    assert optima[0].successor_map() == {1: 2}


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


def test_missing_sink_count_reported():
    # states 2 and 3 have no outgoing arcs, so one sink is impossible
    g = mc.chain_graph([(1, 2, 1)], states=[1, 2, 3])
    with pytest.raises(mc.GraphError):
        enumerate_optimal(g, 1)


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


def test_tied_optima_both_enumerated():
    optima, unique = enumerate_optimal(tied_optimum_chain(), 2)
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
def oracle_graphs(draw):
    """A 3-9-state chain, sometimes with every out-arc of one state dropped
    (that state is then a sink of every w-graph)."""
    g = draw(chain_graphs(min_n=3))
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
    for w in forests:
        assert w.total_weight == sum(g.arc_map[p].weight for p in w.arcs)
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
    for m, ref in want.items():
        if ref is None:
            with pytest.raises(mc.GraphError):
                enumerate_optimal(g, m)
        else:
            assert enumerate_optimal(g, m) == ref
