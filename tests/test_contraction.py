"""Super-vertex contraction of the working graph."""

from fractions import Fraction

import pytest

import metachain as mc
from metachain.alg1 import cycle_hierarchy
from metachain.alg2 import class_hierarchy
from metachain.cli import main
from metachain.chain import super_vertex_name
from metachain.contraction import WorkingGraph, updated_prefactor

F = Fraction


def square():
    return mc.chain_graph(
        [(1, 2, 1), (2, 1, 2), (2, 3, 3), (3, 4, 1), (4, 3, 2), (4, 1, 4), (1, 3, 5)]
    )


def priced(g, vids=(1, 2)):
    """A working graph whose ``vids`` have read their min arcs."""
    wg = WorkingGraph(g)
    for v in vids:
        wg.min_arcs(v)
    return wg


def test_super_vertex_name_sorts_members():
    assert super_vertex_name([3, 1, 2]) == "{1,2,3}"
    assert super_vertex_name(["b", "a"]) == "{a,b}"


def test_initial_view_mirrors_graph():
    g = square()
    wg = WorkingGraph(g)
    assert wg.vertices == {1, 2, 3, 4}
    assert wg.vertex_of == {s: s for s in (1, 2, 3, 4)}
    assert set(wg.out[1]) == {(1, 2), (1, 3)}
    assert wg.u_min == {}


def test_min_arcs_records_the_least_weight():
    g = mc.chain_graph([(1, 3, 2), (1, 2, 2), (1, 4, 5), (2, 1, 1), (3, 1, 1), (4, 1, 1)])
    wg = WorkingGraph(g)
    assert [a.pair() for a in wg.min_arcs(1)] == [(1, 2), (1, 3)]
    assert wg.u_min[1] == F(2)
    lone = WorkingGraph(mc.chain_graph([(1, 2, 1)]))
    assert lone.min_arcs(2) == [] and 2 not in lone.u_min


def test_split_outgoing():
    """A contraction keeps the group's exit arcs and drops its inner ones."""
    wg = priced(square())
    vid = wg.contract({1, 2}, F(2))
    assert set(wg.out[vid]) == {(2, 3), (1, 3)}
    assert all(not {(1, 2), (2, 1)} & set(arcs) for arcs in wg.out.values())


def test_contract_defaults_to_exit_arcs():
    wg = priced(square())
    vid = wg.contract({1, 2}, F(2))
    assert vid == frozenset({1, 2})
    assert wg.vertices == {vid, 3, 4}
    assert wg.vertex_of[1] == vid and wg.vertex_of[2] == vid
    # arcs stay keyed by the original endpoint pair
    assert set(wg.out[vid]) == {(2, 3), (1, 3)}
    assert wg.vertex_of[wg.out[vid][(2, 3)].head] == 3


def test_contract_with_reweighted_exits():
    wg = priced(square())
    vid = wg.contract({1, 2}, F(2))
    # U_ij - u_min(i) + threshold
    assert wg.out[vid][(2, 3)].weight == F(3)  # 3 - 2 + 2
    assert wg.out[vid][(1, 3)].weight == F(6)  # 5 - 1 + 2
    assert wg.out[vid][(2, 3)].kappa is None


def test_contract_updates_prefactors_after_a_closing_prefactor():
    g = mc.chain_graph([(1, 2, 1, 2.0), (2, 1, 2, 4.0), (2, 3, 3, 1.5), (3, 1, 1, 1.0)])
    wg = priced(g)
    vid = wg.contract({1, 2}, F(2), kappa_min={1: 2.0, 2: 4.0}, kappa_last=3.0)
    exit_arc = wg.out[vid][(2, 3)]
    assert exit_arc.weight == F(3)
    assert exit_arc.kappa == updated_prefactor(1.5, 4.0, 3.0) == 1.125
    # without a closing prefactor (the class sweep) prefactors pass through
    wg = priced(g)
    assert wg.out[wg.contract({1, 2}, F(2))][(2, 3)].kappa == 1.5


def test_nested_contractions_expand_lifo():
    wg = priced(square())
    first = wg.contract({1, 2}, F(2))
    wg.min_arcs(first)
    wg.min_arcs(3)
    second = wg.contract({first, 3}, F(3))
    assert second == frozenset({1, 2, 3})
    assert wg.vertices == {second, 4}
    assert all(wg.vertex_of[s] == second for s in (1, 2, 3))
    # 3 -> 4 (1) priced against u_min(3) = 1; the first group's exits are inside
    assert set(wg.out[second]) == {(3, 4)}
    assert wg.out[second][(3, 4)].weight == F(3)


def test_contract_needs_two_existing_vertices():
    wg = WorkingGraph(square())
    with pytest.raises(mc.GraphError):
        wg.contract({1}, F(1))
    with pytest.raises(mc.GraphError):
        wg.contract({1, 9}, F(1))


def test_super_vertex_never_equals_a_state():
    g = mc.chain_graph([(1, 2, 1), (2, 1, 1), ("{1,2}", 1, 2), (2, "{1,2}", 3)])
    wg = priced(g)
    vid = wg.contract({1, 2}, F(1))
    assert vid == frozenset({1, 2}) and vid != "{1,2}"
    assert wg.vertices == {vid, "{1,2}"}
    assert wg.vertex_of["{1,2}"] == "{1,2}"


def clash_chain():
    """States 1, 2 and "{1,2}": the 1<->2 cycle closes first."""
    return mc.chain_graph([(1, 2, 1), (2, 1, 2), (2, "{1,2}", 3), ("{1,2}", 1, 4)])


def test_state_named_like_a_super_vertex_stays_apart():
    g = clash_chain()
    r1 = mc.run_algorithm1(g)
    r2 = mc.run_algorithm2(g)
    assert mc.compare_alg1_alg2(g, r1=r1, r2=r2).ok
    # alg1 closes a second, terminal cycle over both; a state sorts before
    # the super-vertex of the same name
    (root,) = cycle_hierarchy(r1)
    state, inner1 = root.children
    # alg2 stops at full closure with the class {1,2} and the state as roots
    inner2, state2 = class_hierarchy(r2)
    for state, inner in ((state, inner1), (state2, inner2)):
        assert (state.kind, state.state) == ("state", "{1,2}")
        assert inner.kind == "cycle" and inner.record.member_states == frozenset({1, 2})
        assert {c.state for c in inner.children} == {1, 2}
    assert r1.cycles[0].super_vid == r2.classes[0].super_vid == "{1,2}"
    ids = [node.get("id") for node in r1.to_json_dict()["contraction_tree"]]
    assert ids.count("{1,2}") == 1 and ids.count(1) == ids.count(2) == 1


def test_state_named_like_a_super_vertex_on_the_command_line(tmp_path, capsys):
    path = tmp_path / "clash.json"
    mc.save_graph(clash_chain(), path)
    for command in ("alg1", "alg2", "compare"):
        assert main([command, "--input", str(path)]) == 0, capsys.readouterr().err


def test_remove_arc_tracks_contracted_tail():
    wg = priced(square())
    vid = wg.contract({1, 2}, F(2))
    wg.remove_arc(wg.out[vid][(1, 3)])
    assert set(wg.out[vid]) == {(2, 3)}


def test_triangle_cycle_contraction_by_hand():
    """Collapsing the 2-cycle of a triangle leaves one exit arc per tail."""
    g = mc.chain_graph([(1, 2, 1), (2, 1, 2), (2, 3, 2), (3, 1, 5)])
    wg = priced(g)
    vid = wg.contract({1, 2}, F(2))
    assert set(wg.out[vid]) == {(2, 3)}
    assert wg.out[vid][(2, 3)].weight == F(2)  # 2 - 2 + 2
    assert wg.vertices == {vid, 3}
    assert wg.vertex_of[wg.out[3][(3, 1)].head] == vid
