"""Super-vertex contraction of the working graph."""

from fractions import Fraction

import pytest

import metachain as mc
from metachain.contraction import WorkingGraph, super_vertex_name


def square():
    return mc.chain_graph(
        [(1, 2, 1), (2, 1, 2), (2, 3, 3), (3, 4, 1), (4, 3, 2), (4, 1, 4), (1, 3, 5)]
    )


def test_super_vertex_name_sorts_members():
    assert super_vertex_name([3, 1, 2]) == "{1,2,3}"
    assert super_vertex_name(["b", "a"]) == "{a,b}"


def test_initial_view_mirrors_graph():
    g = square()
    wg = WorkingGraph(g)
    assert wg.vertices == {1, 2, 3, 4}
    assert wg.members[2] == frozenset({2})
    assert set(wg.out[1]) == {(1, 2), (1, 3)}


def test_split_outgoing():
    wg = WorkingGraph(square())
    exit_arcs, intra = wg.split_outgoing({1, 2})
    assert set(exit_arcs) == {(2, 3), (1, 3)}
    assert set(intra) == {(1, 2), (2, 1)}


def test_contract_defaults_to_exit_arcs():
    wg = WorkingGraph(square())
    vid = wg.contract({1, 2})
    assert vid == "{1,2}"
    assert wg.vertices == {"{1,2}", 3, 4}
    assert wg.vertex_of[1] == vid and wg.vertex_of[2] == vid
    # arcs stay keyed by the original endpoint pair
    assert set(wg.out[vid]) == {(2, 3), (1, 3)}
    assert wg.vertex_of[wg.out[vid][(2, 3)].head] == 3


def test_contract_with_reweighted_exits():
    wg = WorkingGraph(square())
    new_out = {
        (2, 3): mc.Arc(2, 3, Fraction(7, 2)),
        (1, 3): mc.Arc(1, 3, Fraction(9, 2)),
    }
    vid = wg.contract({1, 2}, new_out=new_out)
    assert wg.out[vid][(2, 3)].weight == Fraction(7, 2)


def test_nested_contractions_expand_lifo():
    wg = WorkingGraph(square())
    first = wg.contract({1, 2})
    second = wg.contract({first, 3})
    assert second == "{1,2,3}"
    assert wg.members[second] == frozenset({1, 2, 3})
    assert wg.vertices == {second, 4}
    assert all(wg.vertex_of[s] == second for s in (1, 2, 3))


def test_contract_needs_two_existing_vertices():
    wg = WorkingGraph(square())
    with pytest.raises(mc.GraphError):
        wg.contract({1})
    with pytest.raises(mc.GraphError):
        wg.contract({1, 9})


def test_contract_rejects_name_collision():
    g = mc.chain_graph([(1, 2, 1), (2, 1, 1), ("{1,2}", 1, 2), (2, "{1,2}", 3)])
    wg = WorkingGraph(g)
    with pytest.raises(mc.GraphError):
        wg.contract({1, 2})


def test_remove_arc_tracks_contracted_tail():
    wg = WorkingGraph(square())
    vid = wg.contract({1, 2})
    wg.remove_arc(wg.out[vid][(1, 3)])
    assert set(wg.out[vid]) == {(2, 3)}


def test_triangle_cycle_contraction_by_hand():
    """Collapsing the 2-cycle of a triangle leaves one exit arc per tail."""
    g = mc.chain_graph([(1, 2, 1), (2, 1, 2), (2, 3, 2), (3, 1, 5)])
    wg = WorkingGraph(g)
    exit_arcs, intra = wg.split_outgoing({1, 2})
    assert set(intra) == {(1, 2), (2, 1)}
    assert set(exit_arcs) == {(2, 3)}
    vid = wg.contract({1, 2})
    assert wg.vertices == {vid, 3}
    assert wg.vertex_of[wg.out[3][(3, 1)].head] == vid
