"""Single-min-arc sweep: update rules, the worked 7-state example, stops,
tie handling and the complete-run counting identities."""

from fractions import Fraction

import pytest

import metachain as mc
from metachain.alg1 import cycle_hierarchy
from metachain.chain import super_vertex_name
from metachain.contraction import updated_prefactor, updated_weight
from metachain.demos import tied_min_arc_chain, two_state_chain

F = Fraction


@pytest.fixture(scope="module")
def demo_report():
    return mc.run_algorithm1(mc.nested_cycle_chain())


def test_updated_weight_identities():
    assert updated_weight(14, "1.1", 3) == F(159, 10)
    assert updated_weight(2, 1, 3) == F(4)
    assert updated_weight("3/2", 1, 3) == F(7, 2)
    assert updated_weight("17/5", "31/10", "7/2") == F(19, 5)


def test_updated_weight_rejects_floats():
    with pytest.raises(mc.GraphError):
        updated_weight(1.5, 1, 3)


def test_updated_prefactor():
    assert updated_prefactor(2.0, 4.0, 3.0) == 1.5
    assert updated_prefactor(1.0, 1.0, 1.0) == 1.0


def test_bucket_orders_exactly():
    """The bucket compares weights exactly and breaks ties by arc order."""
    rep = mc.run_algorithm1(mc.chain_graph([(1, 2, "1/2"), (2, 3, "1/3"), (3, 1, "2/6")]))
    # one arc per state, so the only tie is in the bucket: 1/3 == 2/6 exactly
    assert (rep.symmetry_kind, rep.symmetry_step) == ("bucket-min-multiplicity", 1)
    assert [a.pair() for a in rep.transfers[:2]] == [(2, 3), (3, 1)]  # lex first
    assert rep.gamma[:3] == (F(1, 3), F(1, 3), F(1, 2))


def test_bucket_revlex_takes_largest_pair():
    g = mc.chain_graph([(1, 2, 1), (2, 1, 1)])
    for tie_break, first in (("lex", (1, 2)), ("revlex", (2, 1))):
        rep = mc.run_algorithm1(g, tie_break=tie_break)
        assert rep.transfers[0].pair() == first
        assert (rep.symmetry_kind, rep.symmetry_step) == ("bucket-min-multiplicity", 1)


def test_bucket_extract_all_min():
    """alg2 releases a tied group at once, in arc order, not push order: the
    exit 2->3 of the class {1,2} enters the bucket after 3->1 and leaves first."""
    g = mc.chain_graph([(1, 2, 1), (2, 1, 1), (2, 3, 2), (3, 1, 2)])
    rep = mc.run_algorithm2(g)
    assert rep.theta == (F(1), F(2))
    assert [[a.pair() for a in arcs] for arcs in rep.transfers_by_step] == [
        [(1, 2), (2, 1)],
        [(2, 3), (3, 1)],
    ]
    assert [a.weight for a in rep.transfers] == [F(1), F(1), F(2), F(2)]


def test_walk_closes_cycles_and_finds_sinks():
    """One T-arc walk from the head finds a closing cycle or the sink z*.

    The 3-cycle closes through two T-arcs and has no exit arcs; the
    transient states 4 and 5 transfer into it after it formed, the second
    through the T-arc 4->2, so z* is the cycle's main state 3 both times.
    """
    g = mc.chain_graph([(1, 2, 1), (2, 3, 2), (3, 1, 3), (4, 2, 5), (5, 4, 6)])
    rep = mc.run_algorithm1(g)
    assert {m: (r.k, r.s_star, r.z_star) for m, r in rep.sinks.items()} == {
        4: (1, 1, 2),  # the walk from 2 ends at once: 2 has no T-arc yet
        3: (2, 2, 3),
        2: (4, 4, 3),
        1: (5, 5, 3),
    }
    (c,) = rep.cycles
    assert c.member_vids == (3, 1, 2)  # from the tail of the closing arc
    assert (c.step, c.closing, c.main_state) == (3, (3, 1), 3)
    assert not c.contracted and c.exit_pair is None
    assert rep.terminal_cycle_index == 1
    assert rep.delta == (F(6), F(5), F(2), F(1))


# the worked 7-state example, traced by hand


def test_demo_gamma_sequence(demo_report):
    assert demo_report.gamma == (
        F(1), F(11, 10), F(5, 2), F(3), F(61, 20), F(31, 10), F(7, 2), F(19, 5), F(21, 5)
    )
    assert demo_report.K == 9
    assert demo_report.stop_reason == "bucket-empty"
    assert demo_report.complete


def test_demo_counts(demo_report):
    assert demo_report.n_cycles == 3
    assert demo_report.cycle_steps == (4, 7, 9)
    assert demo_report.K - demo_report.n_cycles == demo_report.n - 1
    assert not demo_report.symmetry_detected
    assert demo_report.symmetry_step is None


def test_demo_exponent_ladder(demo_report):
    assert demo_report.delta == (F(19, 5), F(31, 10), F(61, 20), F(5, 2), F(11, 10), F(1))
    # the ladder is gamma at the non-cycle steps, read backwards
    g = demo_report.gamma
    assert demo_report.delta == (g[7], g[5], g[4], g[2], g[1], g[0])


def test_demo_sink_records(demo_report):
    got = {m: (r.k, r.s_star, r.z_star) for m, r in demo_report.sinks.items()}
    assert got == {
        6: (1, 1, 2),
        5: (2, 3, 2),
        4: (3, 5, 4),
        3: (5, 4, 2),
        2: (6, 6, 2),
        1: (8, 2, 7),
    }


def test_demo_first_cycle(demo_report):
    c = demo_report.cycles[0]
    assert c.step == 4
    assert c.birth == F(3)
    assert c.member_states == frozenset({1, 2, 3})
    assert c.closing == (2, 3)
    assert c.main_state == 2
    assert c.contracted
    assert super_vertex_name(c.member_states) == "{1,2,3}"
    assert c.exit_pair == (1, 6)
    assert c.exit_weight == F(7, 2)


def test_demo_second_cycle(demo_report):
    c = demo_report.cycles[1]
    assert c.step == 7
    assert c.birth == F(7, 2)
    assert c.member_states == frozenset({1, 2, 3, 4, 5, 6})
    # the first cycle's super-vertex is a handle over its states
    first = demo_report.cycles[0].vertex
    assert set(c.member_vids) == {first, 4, 5, 6} and first.states() == frozenset({1, 2, 3})
    assert super_vertex_name(c.member_states) == "{1,2,3,4,5,6}"
    assert c.closing == (1, 6)
    assert c.exit_pair == (6, 7)
    assert c.exit_weight == F(19, 5)


def test_demo_terminal_cycle(demo_report):
    c = demo_report.cycles[2]
    assert c.step == 9
    assert c.birth == F(21, 5)
    assert c.member_states == frozenset(range(1, 8))
    assert not c.contracted
    assert c.exit_pair is None
    assert c.main_state == 7
    # index is the running cycle count, so the third cycle is terminal
    assert demo_report.terminal_cycle_index == 3
    assert demo_report.cycles[2].closing == (7, 6)


def test_demo_transfer_weights(demo_report):
    in_force = {a.pair(): a.weight for a in demo_report.transfers[:8]}
    assert in_force == {
        (1, 2): F(1),
        (3, 1): F(11, 10),
        (5, 4): F(5, 2),
        (2, 3): F(3),
        (4, 3): F(61, 20),
        (6, 5): F(31, 10),
        (1, 6): F(7, 2),  # updated from 3/2 when {1,2,3} collapsed
        (6, 7): F(19, 5),  # updated from 17/5
    }
    assert demo_report.transfers[8].pair() == (7, 6)
    assert demo_report.transfers[8].weight == F(21, 5)


def test_demo_tgraph_nesting(demo_report):
    tg = demo_report.tgraphs
    assert len(tg) == demo_report.K + 1
    assert tg[0].arcs == () and tg[0].threshold == 0
    for k in range(1, len(tg)):
        assert len(tg[k].arcs) == k
        assert tg[k].threshold == demo_report.gamma[k - 1]
        assert tg[k - 1].pairs() <= tg[k].pairs()


def test_demo_hierarchy(demo_report):
    roots = cycle_hierarchy(demo_report)
    assert len(roots) == 1
    root = roots[0]
    assert root.kind == "cycle" and root.record.step == 9

    def collect(node, depth=0):
        if node.kind == "state":
            return {node.state: depth}
        out = {}
        for child in node.children:
            out.update(collect(child, depth + 1))
        return out

    depth_of = collect(root)
    # nesting: the inner triangle sits two contractions down
    assert depth_of == {1: 3, 2: 3, 3: 3, 4: 2, 5: 2, 6: 2, 7: 1}


def test_demo_alpha_without_prefactors(demo_report):
    assert demo_report.order_one_only
    assert demo_report.alpha is None


def test_two_state_run():
    rep = mc.run_algorithm1(two_state_chain())
    assert rep.gamma == (F(1), F(2))
    assert rep.delta == (F(1),)
    assert rep.K == 2 and rep.n_cycles == 1
    r = rep.sinks[1]
    assert (r.k, r.s_star, r.z_star) == (1, 1, 2)
    c = rep.cycles[0]
    assert c.member_states == frozenset({1, 2})
    assert not c.contracted  # terminal


def test_absorbing_tail_run():
    """A transient state hanging off a terminal 2-cycle."""
    g = mc.chain_graph([(1, 2, 1), (2, 1, 2), (3, 2, 5)])
    rep = mc.run_algorithm1(g)
    assert rep.gamma == (F(1), F(2), F(5))
    assert rep.K == 3 and rep.n_cycles == 1
    assert {m: (r.k, r.s_star, r.z_star) for m, r in rep.sinks.items()} == {
        2: (1, 1, 2),
        1: (3, 3, 2),
    }
    assert rep.cycles[0].main_state == 2
    assert rep.delta == (F(5), F(1))


def test_validation_gate():
    # two closed classes break the single-class assumption
    g = mc.chain_graph([(1, 2, 1), (1, 3, 2)], states=[1, 2, 3])
    with pytest.raises(mc.ValidationFailure):
        mc.run_algorithm1(g)


def test_stop_bucket_size_one():
    rep = mc.run_algorithm1(
        mc.nested_cycle_chain(), stop=mc.StopCriterion.bucket_size_one()
    )
    assert rep.stop_reason == "bucket-size-one"
    assert not rep.complete
    assert rep.K < 9


def test_stop_exponent_threshold():
    rep = mc.run_algorithm1(
        mc.nested_cycle_chain(), stop=mc.StopCriterion.exponent_threshold(F(3))
    )
    assert rep.stop_reason == "exponent-threshold"
    # arcs strictly below the threshold transfer, the rest stay put
    assert rep.gamma == (F(1), F(11, 10), F(5, 2))
    assert all(w < F(3) for w in rep.gamma)


def test_stop_custom_predicate():
    rep = mc.run_algorithm1(
        mc.nested_cycle_chain(),
        stop=mc.StopCriterion.custom(lambda tg, w: len(tg.arcs) >= 2),
    )
    assert rep.stop_reason == "custom"
    assert rep.K == 2


def test_unknown_stop_kind_rejected():
    with pytest.raises(ValueError):
        mc.StopCriterion("sometimes")


def test_bad_tie_break_rejected():
    with pytest.raises(ValueError):
        mc.run_algorithm1(two_state_chain(), tie_break="random")


def test_tie_is_flagged_not_hidden():
    rep = mc.run_algorithm1(tied_min_arc_chain())
    assert rep.symmetry_detected
    assert rep.symmetry_kind == "min-arc-multiplicity"
    assert rep.symmetry_step == 0  # found while seeding the bucket
    assert rep.complete  # the sweep still finishes under the tie-break


def test_bucket_tie_kind():
    g = mc.chain_graph([(1, 2, 1), (2, 1, 1)])
    rep = mc.run_algorithm1(g)
    assert rep.symmetry_detected
    assert rep.symmetry_kind == "bucket-min-multiplicity"
    assert rep.symmetry_step == 1


def test_tie_break_changes_selection_only():
    lex = mc.run_algorithm1(tied_min_arc_chain(), tie_break="lex")
    rev = mc.run_algorithm1(tied_min_arc_chain(), tie_break="revlex")
    assert tuple(sorted(set(lex.gamma))) == tuple(sorted(set(rev.gamma))) == (F(1), F(2))
    # lex closes the 2-cycle, revlex never does
    assert lex.n_cycles == 1 and rev.n_cycles == 0
    assert lex.K - lex.n_cycles == rev.K - rev.n_cycles == 2


def test_prefactor_neutrality():
    """All-ones prefactors must reproduce the bare-exponent run."""
    plain = mc.nested_cycle_chain()
    dressed = mc.chain_graph([(a.tail, a.head, a.weight, 1.0) for a in plain.arcs])
    rep = mc.run_algorithm1(dressed)
    bare = mc.run_algorithm1(plain)
    assert rep.gamma == bare.gamma
    assert rep.delta == bare.delta
    assert not rep.order_one_only
    assert rep.alpha == (1.0,) * 6


def test_integer_fixture_lex_trace():
    rep = mc.run_algorithm1(mc.nested_cycle_chain_integer())
    assert rep.symmetry_detected and rep.symmetry_step == 0
    assert rep.gamma == (F(1), F(1), F(3), F(3), F(3), F(3), F(4), F(4), F(4), F(4))
    assert rep.K == 10 and rep.n_cycles == 4
    assert rep.cycle_steps == (3, 7, 8, 10)
    assert tuple(sorted(set(rep.gamma))) == (F(1), F(3), F(4))
    assert rep.terminal_cycle_index == 4
    assert rep.K - rep.n_cycles == rep.n - 1


def test_corpus_counting_identity(oracle_corpus):
    for g, rep in oracle_corpus[:40]:
        assert rep.complete
        assert rep.K - rep.n_cycles == g.n - 1
        assert sorted(rep.sinks) == list(range(1, g.n))
        # tie-free sweeps have strictly increasing exponent sequences
        assert all(a < b for a, b in zip(rep.gamma, rep.gamma[1:]))
        assert all(a > b for a, b in zip(rep.delta, rep.delta[1:]))
