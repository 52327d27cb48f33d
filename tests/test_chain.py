"""Container validation, component analysis and generator assembly."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import metachain as mc
from metachain.chain import (
    Arc,
    ChainGraph,
    closed_communicating_classes,
    generator_matrix,
    parse_state,
    state_key,
    strongly_connected_components,
)


def triangle():
    return mc.chain_graph([(1, 2, 1), (2, 3, 2), (3, 1, 3)])


def test_state_key_orders_ints_before_strings():
    assert sorted(["b", 3, 1, "a"], key=state_key) == [1, 3, "a", "b"]


def test_state_key_rejects_bool():
    with pytest.raises(mc.GraphError):
        state_key(True)


@pytest.mark.parametrize("bad", [2.5, None, (1, 2), frozenset({1, 2})])
def test_state_id_must_be_int_or_str(bad):
    with pytest.raises(mc.GraphError, match="ints or strings"):
        mc.chain_graph([(1, bad, 1), (bad, 1, 1)], states=[1, bad])


def test_arc_endpoint_must_be_int_or_str():
    with pytest.raises(mc.GraphError, match="ints or strings"):
        ChainGraph((1, 2), (Arc([1], 2, Fraction(1)), Arc(2, 1, Fraction(1))))


def test_chain_graph_infers_sorted_states():
    g = mc.chain_graph([(2, 1, 1), (1, 2, 2), (1, "a", 3), ("a", 1, 4)])
    assert g.states == (1, 2, "a")
    assert g.n == 3


def test_arc_lookup_and_pair():
    g = triangle()
    a = g.arc_map[(1, 2)]
    assert a.pair() == (1, 2)
    assert a.weight == Fraction(1)
    assert [x.head for x in g.out_arcs(2)] == [3]
    assert g.adjacency() == {1: [2], 2: [3], 3: [1]}


def test_decimal_string_weights_are_exact():
    g = mc.chain_graph([(1, 2, "1.1"), (2, 1, "3/2")])
    assert g.arc_map[(1, 2)].weight == Fraction(11, 10)
    assert g.arc_map[(2, 1)].weight == Fraction(3, 2)


def test_float_weight_rejected():
    with pytest.raises(mc.GraphError):
        mc.chain_graph([(1, 2, 1.5), (2, 1, 1)])


def test_nonpositive_weight_rejected():
    with pytest.raises(mc.GraphError):
        mc.chain_graph([(1, 2, 0), (2, 1, 1)])
    with pytest.raises(mc.GraphError):
        mc.chain_graph([(1, 2, -2), (2, 1, 1)])


def test_self_loop_rejected():
    with pytest.raises(mc.GraphError):
        mc.chain_graph([(1, 1, 1), (1, 2, 2)])


def test_duplicate_pair_rejected():
    with pytest.raises(mc.GraphError):
        mc.chain_graph([(1, 2, 1), (1, 2, 2), (2, 1, 3)])


def test_unknown_endpoint_rejected():
    with pytest.raises(mc.GraphError):
        mc.chain_graph([(1, 2, 1), (2, 3, 2)], states=[1, 2])


def test_duplicate_state_rejected():
    with pytest.raises(mc.GraphError):
        mc.chain_graph([(1, 2, 1)], states=[1, 2, 2])


def test_empty_graph_rejected():
    with pytest.raises(mc.GraphError):
        mc.chain_graph([])


def test_prefactors_are_all_or_none():
    g = mc.chain_graph([(1, 2, 1, 2.0), (2, 1, 2, 0.5)])
    assert g.has_prefactors
    assert not triangle().has_prefactors
    with pytest.raises(mc.GraphError):
        mc.chain_graph([(1, 2, 1, 2.0), (2, 1, 2)])


def test_nonpositive_prefactor_rejected():
    with pytest.raises(mc.GraphError):
        mc.chain_graph([(1, 2, 1, 0.0), (2, 1, 2, 1.0)])


@pytest.mark.parametrize(
    "kappa", ["2.5", "abc", True, math.inf, math.nan, -1, 10**400, [1]]
)
def test_prefactor_rule_refuses_what_is_not_a_finite_positive_number(kappa):
    with pytest.raises(mc.GraphError, match="prefactor must be"):
        mc.chain_graph([(1, 2, 1, kappa), (2, 1, 2, 1.0)])


def test_prefactor_rule_holds_for_arcs_built_directly():
    with pytest.raises(mc.GraphError, match="prefactor must be"):
        ChainGraph((1, 2), (Arc(1, 2, Fraction(1), True), Arc(2, 1, Fraction(2), True)))


def test_prefactors_are_stored_as_floats():
    g = ChainGraph((1, 2), (Arc(1, 2, Fraction(1), 2), Arc(2, 1, Fraction(2), np.float64(0.5))))
    assert [type(a.kappa) for a in g.arcs] == [float, float]
    assert [a.kappa for a in g.arcs] == [2.0, 0.5]


@pytest.mark.parametrize(
    "token, state",
    [
        ("7", 7),
        (" -3 ", -3),
        ("+4", 4),
        ("007", 7),
        ("1_0", "1_0"),
        ("+-5", "+-5"),
        ("-", "-"),
        ("\u0663", "\u0663"),  # a non-ASCII digit
        (" a b ", "a b"),
    ],
)
def test_parse_state(token, state):
    got = parse_state(token)
    assert got == state and type(got) is type(state)


def test_scc_singletons_in_reverse_topological_order():
    g = mc.chain_graph([(1, 2, 1), (2, 3, 1)], states=[1, 2, 3])
    comps = strongly_connected_components(g)
    assert comps == [frozenset({3}), frozenset({2}), frozenset({1})]


def test_scc_two_blocks():
    g = mc.chain_graph([(1, 2, 1), (2, 1, 1), (2, 3, 2), (3, 4, 1), (4, 3, 1)])
    comps = strongly_connected_components(g)
    assert set(comps) == {frozenset({1, 2}), frozenset({3, 4})}
    # the downstream block must come out first
    assert comps[0] == frozenset({3, 4})


def test_scc_accepts_plain_adjacency():
    comps = strongly_connected_components({1: [2], 2: [1], 3: []}, vertices=[1, 2, 3])
    assert set(comps) == {frozenset({1, 2}), frozenset({3})}


@st.composite
def digraphs(draw):
    n = draw(st.integers(2, 7))
    verts = list(range(n))
    edges = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=n * (n - 1),
        )
    )
    return verts, sorted(edges)


def _reachability(verts, edges):
    reach = {v: {v} for v in verts}
    changed = True
    while changed:
        changed = False
        for t, h in edges:
            new = reach[h] - reach[t]
            if new:
                reach[t] |= new
                changed = True
    return reach


@given(digraphs())
def test_scc_matches_transitive_closure_oracle(graph):
    verts, edges = graph
    adj = {v: [h for t, h in edges if t == v] for v in verts}
    reach = _reachability(verts, edges)
    expected = {
        frozenset(w for w in verts if v in reach[w] and w in reach[v]) for v in verts
    }
    got = strongly_connected_components(adj, vertices=verts)
    assert set(got) == expected
    # partition: every vertex in exactly one component
    assert sorted(v for c in got for v in c) == verts


@given(digraphs(), st.randoms(use_true_random=False))
def test_scc_invariant_under_relabeling(graph, rnd):
    verts, edges = graph
    perm = verts[:]
    rnd.shuffle(perm)
    relabel = {v: f"s{p}" for v, p in zip(verts, perm)}
    adj = {v: [h for t, h in edges if t == v] for v in verts}
    base = strongly_connected_components(adj, vertices=verts)
    radj = {relabel[v]: [relabel[h] for h in hs] for v, hs in adj.items()}
    relabeled = strongly_connected_components(radj, vertices=relabel.values())
    assert {frozenset(relabel[v] for v in c) for c in base} == set(relabeled)


def test_closed_classes_split_nontrivial_and_absorbing():
    g = mc.chain_graph([(1, 2, 1), (2, 1, 1), (3, 1, 2), (3, 4, 1)], states=[1, 2, 3, 4])
    cc = closed_communicating_classes(g)
    assert cc.nontrivial == (frozenset({1, 2}),)
    assert cc.absorbing == (4,)


def test_closed_classes_ignore_open_cycles():
    g = mc.chain_graph([(1, 2, 1), (2, 1, 1), (2, 3, 2)], states=[1, 2, 3])
    cc = closed_communicating_classes(g)
    assert cc.nontrivial == ()
    assert cc.absorbing == (3,)


def test_validate_irreducible_demo():
    rep = mc.validate(mc.nested_cycle_chain())
    assert rep.n == 7
    assert rep.is_irreducible
    assert rep.satisfies_a2
    assert rep.closed_classes == (frozenset(range(1, 8)),)


def test_validate_absorbing_chain_satisfies_a2():
    g = mc.chain_graph([(1, 2, 1)], states=[1, 2])
    rep = mc.validate(g)
    assert not rep.is_irreducible
    assert rep.satisfies_a2
    assert rep.closed_classes == (frozenset({2}),)


def test_validate_two_sinks_fails_a2():
    g = mc.chain_graph([(1, 2, 1), (1, 3, 2)], states=[1, 2, 3])
    rep = mc.validate(g)
    assert not rep.satisfies_a2
    assert len(rep.closed_classes) == 2
    # the scc partition still covers every state
    assert sorted(v for c in rep.scc_partition for v in c) == [1, 2, 3]


def test_validation_report_json_keeps_state_types():
    # the int 1 and the string "1" share a closed class; "a" is absorbing
    g = mc.chain_graph([(1, "1", 1), ("1", 1, 1), (2, 1, 1), (2, "a", 1)])
    doc = mc.validate(g).to_json_dict()
    assert doc["schema"] == 2
    assert doc["closed_classes"] == [[1, "1"], ["a"]]
    assert {tuple(c) for c in doc["scc_partition"]} == {(1, "1"), (2,), ("a",)}


def test_generator_rows_sum_to_zero():
    g = mc.nested_cycle_chain()
    L = generator_matrix(g, 0.25)
    sums = L.matrix.sum(axis=1)
    assert max(abs(s) for s in sums) <= 1e-12 * L.norm()


def test_generator_off_diagonal_entries():
    g = mc.chain_graph([(1, 2, 1, 2.0), (2, 1, 2, 0.5)])
    L = generator_matrix(g, 0.5)
    i, j = L.index[1], L.index[2]
    assert L.matrix[i][j] == pytest.approx(2.0 * math.exp(-1 / 0.5), rel=1e-15)
    assert L.matrix[j][i] == pytest.approx(0.5 * math.exp(-2 / 0.5), rel=1e-15)
    assert not L.order_one_only


def test_generator_order_one_flag_without_prefactors():
    L = generator_matrix(triangle(), 0.5)
    assert L.order_one_only
    assert L.epsilon == 0.5
    assert L.states == (1, 2, 3)


def test_generator_entries_shrink_with_epsilon():
    g = triangle()
    hot = generator_matrix(g, 0.5)
    cold = generator_matrix(g, 0.25)
    i, j = hot.index[1], hot.index[2]
    assert cold.matrix[i][j] < hot.matrix[i][j]


def test_generator_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        generator_matrix(triangle(), 0.0)
    with pytest.raises(ValueError):
        generator_matrix(triangle(), -1.0)


EPSILON_TAKERS = {
    "generator_matrix": lambda eps: generator_matrix(triangle(), eps),
    "simulate": lambda eps: mc.simulate(triangle(), eps, 1, 1.0, seed=0),
    "eigenvalue_estimates": lambda eps: mc.eigenvalue_estimates(
        mc.run_algorithm1(triangle()), eps
    ),
}


@pytest.mark.parametrize("epsilon", [True, 0, -0.5, math.nan, math.inf, "0.1", None])
@pytest.mark.parametrize("taker", sorted(EPSILON_TAKERS))
def test_every_epsilon_taker_refuses_alike(taker, epsilon):
    with pytest.raises(ValueError, match="epsilon must be"):
        EPSILON_TAKERS[taker](epsilon)


@pytest.mark.parametrize("taker", sorted(EPSILON_TAKERS))
def test_every_epsilon_taker_computes_in_float64(taker):
    eps32 = np.float32(0.1)
    got = EPSILON_TAKERS[taker](eps32)
    assert type(got.epsilon) is float and got.epsilon == float(eps32)
    ref = EPSILON_TAKERS[taker](float(eps32))
    if taker == "generator_matrix":
        got, ref = got.matrix.tolist(), ref.matrix.tolist()
    assert got == ref
