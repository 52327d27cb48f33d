"""The sweeps run on integers over the chain's common denominator, one int
per arc aligned with ``ChainGraph.arcs``; these tests check that this
scaling is invisible: multiplying every exponent by c scales every reported
exponent by exactly c and changes nothing else, and listing the arcs in
another order changes nothing at all.  The integers stay exact past 2^100
and cost at most 48 bytes per arc.  The last tests run both sweeps and
their comparison at 3000 states."""

import gc
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metachain as mc
from conftest import chain_graphs, deep_funnel
from metachain.chain import ChainGraph
from metachain.contraction import SuperVertex

F = Fraction
FACTORS = [F(2), F(3, 7), F(1000003, 999983)]


def times(g, c):
    return mc.chain_graph([(a.tail, a.head, a.weight * c) for a in g.arcs], g.states)


def scaled(xs, c):
    return tuple(None if x is None else x * c for x in xs)


def members(vids):
    """Record members, a super-vertex among them as its states."""
    return [v.states() if isinstance(v, SuperVertex) else v for v in vids]


def alg1_shape(r):
    return (
        [a.pair() for a in r.transfers], r.sinks, r.cycle_steps, r.stop_reason, r.terminal_cycle_index,
        [
            (members(c.member_vids), c.member_states, c.closing, c.main_state, c.exit_pair)
            for c in r.cycles
        ],
        (r.symmetry_detected, r.symmetry_step, r.symmetry_kind), r.tgraphs.ends,
    )


def alg2_shape(r):
    return (
        [a.pair() for a in r.transfers], r.multiplicity, r.tgraphs.ends, r.stop_reason,
        [(set(members(c.member_vids)), c.member_states, c.main_state, c.step) for c in r.classes],
        r.final_closed_classes, r.final_absorbing, r.transient_states,
    )


def check_alg1(r, s, c):
    assert alg1_shape(s) == alg1_shape(r)
    assert s.gamma == scaled(r.gamma, c)
    assert s.delta == scaled(r.delta, c)
    assert [a.weight for a in s.transfers] == [a.weight * c for a in r.transfers]
    assert [x.birth for x in s.cycles] == [x.birth * c for x in r.cycles]
    assert scaled([x.exit_weight for x in s.cycles], 1) == scaled([x.exit_weight for x in r.cycles], c)
    assert s.tgraphs.thresholds == scaled(r.tgraphs.thresholds, c)


def check_alg2(r, s, c):
    assert alg2_shape(s) == alg2_shape(r)
    assert s.theta == scaled(r.theta, c)
    assert [a.weight for a in s.transfers] == [a.weight * c for a in r.transfers]
    assert [x.birth for x in s.classes] == [x.birth * c for x in r.classes]
    assert scaled([x.exit_weight for x in s.classes], 1) == scaled([x.exit_weight for x in r.classes], c)


@given(chain_graphs(min_n=3), st.sampled_from(FACTORS), st.integers(0, 3))
@settings(max_examples=150)
def test_scaling_every_exponent_scales_every_result(g, c, pick):
    h = times(g, c)
    for tie_break in ("lex", "revlex"):
        r = mc.run_algorithm1(g, tie_break=tie_break)
        check_alg1(r, mc.run_algorithm1(h, tie_break=tie_break), c)
        # thresholds on and between the exponents the run met
        q = sorted(set(r.gamma))[pick % len(set(r.gamma))]
        for threshold in (q, q + F(1, 10**6)):
            stop, stop_c = (mc.StopCriterion.exponent_threshold(x) for x in (threshold, threshold * c))
            check_alg1(mc.run_algorithm1(g, stop, tie_break), mc.run_algorithm1(h, stop_c, tie_break), c)
    r = mc.run_algorithm2(g)
    check_alg2(r, mc.run_algorithm2(h), c)
    q = r.theta[pick % len(r.theta)]
    for threshold in (q, q + F(1, 10**6)):
        stop, stop_c = (mc.StopCriterion.exponent_threshold(x) for x in (threshold, threshold * c))
        check_alg2(mc.run_algorithm2(g, stop), mc.run_algorithm2(h, stop_c), c)


# Denominators are eight distinct primes near 10^4: their lcm exceeds 10^31.
PRIMES = (10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079)


def prime_denominator_chain():
    pairs = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (2, 1), (4, 2), (5, 3)]
    numerators = (31013, 5002, 70001, 20327, 41005, 9999, 66666, 15013)
    return mc.chain_graph([(t, h, F(k, p)) for (t, h), k, p in zip(pairs, numerators, PRIMES)])


def test_chain_with_a_huge_common_denominator():
    g = prime_denominator_chain()
    scale, weights = g.integer_weights
    assert scale > 10**30 and sorted(a.weight.denominator for a in g.arcs) == list(PRIMES)
    assert len(weights) == len(g.arcs)
    assert all(type(w) is int and w == a.weight * scale for a, w in zip(g.arcs, weights))
    r1 = mc.run_algorithm1(g)
    assert not r1.symmetry_detected and r1.complete
    assert mc.compare_alg1_alg2(g, r1=r1).ok
    per_m = mc.enumerate_all_optimal(g)
    for m in range(1, g.n):
        optima, unique = per_m[m]
        assert unique and mc.extract_wgraph(r1, m) == optima[0]


@given(st.data())
@settings(max_examples=120)
def test_arc_order_changes_no_result(data):
    """The same chain with its arcs listed in another order gives the same
    reports, optima and extracted in-forests.  ``chain_graphs`` lists arcs in
    (tail, head) order, the order the sweeps number them in, so a weight
    read by that number instead of by the arc's place in ``arcs`` shows
    here."""
    g = data.draw(chain_graphs())
    h = ChainGraph(g.states, tuple(data.draw(st.permutations(g.arcs))))
    for tie_break in ("lex", "revlex"):
        r, s = (mc.run_algorithm1(x, tie_break=tie_break) for x in (g, h))
        assert s.to_json_dict() == r.to_json_dict()
        if not r.symmetry_detected:
            for m in range(1, g.n):
                assert mc.extract_wgraph(s, m) == mc.extract_wgraph(r, m)
    assert mc.run_algorithm2(h).to_json_dict() == mc.run_algorithm2(g).to_json_dict()
    assert mc.compare_alg1_alg2(h).to_json_dict() == mc.compare_alg1_alg2(g).to_json_dict()
    assert mc.enumerate_all_optimal(h) == mc.enumerate_all_optimal(g)


def test_integer_weights_cost_under_48_bytes_per_arc():
    """One int per arc in a tuple: the first access to ``integer_weights``
    on a 3000-state chain with 9000 distinct exponents keeps at most 48 bytes
    per arc alive (an int and its slot), not a second copy of the arc set."""
    g = cycle_plus_arcs(3000, 3, lambda rng, k: [F(x, 7) for x in rng.sample(range(7, 7 * 10**5), k)])
    gc.collect()
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scale, weights = g.integer_weights
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert scale == 7 and len(weights) == len(g.arcs) == 9000
    assert grown <= 48 * len(g.arcs), f"{grown / len(g.arcs):.1f} B per arc"


def cycle_plus_arcs(n: int, seed: int, weights):
    """A Hamiltonian cycle through n states plus 2n random arcs, weighted
    by ``weights(rng, 3 * n)`` in turn."""
    rng = random.Random(seed)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    pairs = dict.fromkeys((perm[i], perm[(i + 1) % n]) for i in range(n))
    while len(pairs) < 3 * n:
        t, h = rng.randint(1, n), rng.randint(1, n)
        if t != h:
            pairs[t, h] = None
    return mc.chain_graph([(t, h, w) for (t, h), w in zip(pairs, weights(rng, 3 * n))])


def chain_of_3000(family: str) -> ChainGraph:
    """One 3000-state chain of each family: a funnel nested 2999 deep,
    pairwise distinct weights, and weights 1..10."""
    n = 3000
    if family == "deep":
        return deep_funnel(n, seed=3)
    if family == "distinct":
        return cycle_plus_arcs(n, 3, lambda rng, k: [F(x, 7) for x in rng.sample(range(7, 7 * 10**5), k)])
    return cycle_plus_arcs(n, 3, lambda rng, k: [F(rng.randint(1, 10)) for _ in range(k)])


@pytest.mark.parametrize("family", ["deep", "distinct", "ties"])
def test_the_sweeps_agree_on_3000_states(family):
    """Both sweeps and their comparison on one chain of each family."""
    g = chain_of_3000(family)
    r1 = mc.run_algorithm1(g)
    report = mc.compare_alg1_alg2(g, r1=r1)
    assert report.ok, report.statements
    assert report.k_index[-1] == r1.K


@pytest.mark.parametrize("family", ["nested", "deep", "distinct"])
def test_equal_windows_never_reach_the_tracker(monkeypatch, family):
    """Every window of these chains holds the same arcs on both sides, so
    the comparison holds without building the closed-class tracker."""
    g = mc.nested_cycle_chain() if family == "nested" else chain_of_3000(family)
    r1, r2 = mc.run_algorithm1(g), mc.run_algorithm2(g)

    def boom(*_args):
        raise AssertionError("the tracker was built")

    monkeypatch.setattr("metachain.alg2._PairedClosedClasses", boom)
    report = mc.compare_alg1_alg2(g, r1=r1, r2=r2)
    assert report.ok, report.statements
