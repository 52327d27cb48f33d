"""Super-vertex contraction of the working graph."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metachain as mc
from metachain.alg1 import cycle_hierarchy
from metachain.alg2 import class_hierarchy
from metachain.cli import main
from conftest import chain_graphs
from metachain.chain import state_key, super_vertex_name
from metachain.contraction import SuperVertex, WorkingGraph, updated_prefactor, updated_weight

F = Fraction


def square():
    return mc.chain_graph(
        [(1, 2, 1), (2, 1, 2), (2, 3, 3), (3, 4, 1), (4, 3, 2), (4, 1, 4), (1, 3, 5)]
    )


def priced(g, states=(1, 2)):
    """A working graph whose ``states`` have read their min arcs."""
    wg = WorkingGraph(g)
    for s in states:
        wg.min_arcs(wg.vertex_of(s))
    return wg


def scaled(wg, q):
    """A threshold as the int over ``wg.scale`` that ``contract`` takes."""
    q = F(q) * wg.scale
    assert q.denominator == 1
    return q.numerator


def merge(wg, states, threshold, **kw):
    return wg.contract({wg.vertex_of(s) for s in states}, scaled(wg, threshold), **kw)


def exits(wg, vid):
    """Every exit arc of ``vid`` by pair, with its in-force Fraction weight.
    Reads them one least-weight group at a time, so it empties the vertex."""
    out = {}
    while ids := wg.min_arcs(vid):
        for p in ids:
            out[wg.arcs[p].pair()] = wg.transfer(p, wg.u_min[vid])
    return out


def members(v):
    """A state, or the states of a super-vertex."""
    return v.states() if isinstance(v, SuperVertex) else v


def current(wg, states):
    return {members(wg.vertex[wg.vertex_of(s)]) for s in states}


def test_super_vertex_name_sorts_members():
    assert super_vertex_name([3, 1, 2]) == "{1,2,3}"
    assert super_vertex_name(["b", "a"]) == "{a,b}"


def test_initial_view_mirrors_graph():
    g = square()
    wg = WorkingGraph(g)
    assert current(wg, g.states) == {1, 2, 3, 4}
    assert all(wg.vertex[wg.vertex_of(s)] == s for s in (1, 2, 3, 4))
    assert wg.u_min == [None] * 4
    assert set(exits(wg, wg.vertex_of(1))) == {(1, 2), (1, 3)}


def test_min_arcs_records_the_least_weight():
    g = mc.chain_graph([(1, 3, 2), (1, 2, 2), (1, 4, 5), (2, 1, 1), (3, 1, 1), (4, 1, 1)])
    wg = WorkingGraph(g)
    v = wg.vertex_of(1)
    assert [wg.arcs[p].pair() for p in wg.min_arcs(v)] == [(1, 2), (1, 3)]
    assert F(wg.u_min[v], wg.scale) == F(2)
    assert wg.min_arc(v) == (wg.min_arcs(v)[0], True)
    lone = WorkingGraph(mc.chain_graph([(1, 2, 1)]))
    assert lone.min_arcs(lone.vertex_of(2)) == [] and lone.u_min[lone.vertex_of(2)] is None
    assert lone.min_arc(lone.vertex_of(2)) == (None, False)


def test_split_outgoing():
    """A contraction keeps the group's exit arcs and drops its inner ones."""
    wg = priced(square())
    vid = merge(wg, {1, 2}, 2)
    assert set(exits(wg, vid)) == {(2, 3), (1, 3)}
    for s in (3, 4):
        assert not {(1, 2), (2, 1)} & set(exits(wg, wg.vertex_of(s)))


def test_contract_defaults_to_exit_arcs():
    wg = priced(square())
    vid = merge(wg, {1, 2}, 2)
    assert wg.vertex[vid].states() == frozenset({1, 2})
    assert current(wg, (1, 2, 3, 4)) == {frozenset({1, 2}), 3, 4}
    assert wg.vertex_of(1) == vid and wg.vertex_of(2) == vid
    # arcs stay keyed by the original endpoint pair
    out = exits(wg, vid)
    assert set(out) == {(2, 3), (1, 3)}
    assert wg.vertex[wg.vertex_of(out[(2, 3)].head)] == 3


def test_contract_with_reweighted_exits():
    wg = priced(square())
    out = exits(wg, merge(wg, {1, 2}, 2))
    # U_ij - u_min(i) + threshold
    assert out[(2, 3)].weight == F(3)  # 3 - 2 + 2
    assert out[(1, 3)].weight == F(6)  # 5 - 1 + 2
    assert out[(2, 3)].kappa is None


def test_contract_updates_prefactors_after_a_closing_prefactor():
    g = mc.chain_graph([(1, 2, 1, 2.0), (2, 1, 2, 4.0), (2, 3, 3, 1.5), (3, 1, 1, 1.0)])
    wg = priced(g)
    kappa_min = {wg.vertex_of(1): 2.0, wg.vertex_of(2): 4.0}
    exit_arc = exits(wg, merge(wg, {1, 2}, 2, kappa_min=kappa_min, kappa_last=3.0))[(2, 3)]
    assert exit_arc.weight == F(3)
    assert exit_arc.kappa == updated_prefactor(1.5, 4.0, 3.0) == 1.125
    # without a closing prefactor (the class sweep) prefactors pass through
    wg = priced(g)
    assert exits(wg, merge(wg, {1, 2}, 2))[(2, 3)].kappa == 1.5


def test_nested_contractions_expand_lifo():
    wg = priced(square())
    first = merge(wg, {1, 2}, 2)
    wg.min_arcs(first)
    wg.min_arcs(wg.vertex_of(3))
    second = merge(wg, {1, 3}, 3)
    assert wg.vertex[second].states() == frozenset({1, 2, 3})
    assert current(wg, (1, 2, 3, 4)) == {frozenset({1, 2, 3}), 4}
    assert all(wg.vertex_of(s) == second for s in (1, 2, 3))
    # 3 -> 4 (1) priced against u_min(3) = 1; the first group's exits are inside
    out = exits(wg, second)
    assert set(out) == {(3, 4)}
    assert out[(3, 4)].weight == F(3)


def test_contract_needs_two_existing_vertices():
    wg = WorkingGraph(square())
    with pytest.raises(mc.GraphError):
        wg.contract({wg.vertex_of(1)}, 1)
    with pytest.raises(mc.GraphError):
        wg.contract({wg.vertex_of(1), 9}, 1)
    # a vertex already contracted is not a current vertex any more
    wg = priced(square())
    merge(wg, {1, 2}, 2)
    with pytest.raises(mc.GraphError):
        wg.contract({wg.sid[1], wg.vertex_of(3)}, 1)


def test_super_vertex_never_equals_a_state():
    g = mc.chain_graph([(1, 2, 1), (2, 1, 1), ("{1,2}", 1, 2), (2, "{1,2}", 3)])
    wg = priced(g)
    vid = merge(wg, {1, 2}, 1)
    assert wg.vertex[vid].states() == frozenset({1, 2}) and wg.vertex[vid] != "{1,2}"
    assert current(wg, g.states) == {frozenset({1, 2}), "{1,2}"}
    assert wg.vertex[wg.vertex_of("{1,2}")] == "{1,2}"


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
    assert super_vertex_name(r1.cycles[0].member_states) == super_vertex_name(r2.classes[0].member_states) == "{1,2}"
    ids = [node.get("id") for node in r1.to_json_dict()["contraction_tree"]]
    assert ids.count("{1,2}") == 1 and ids.count(1) == ids.count(2) == 1


def test_state_named_like_a_super_vertex_on_the_command_line(tmp_path, capsys):
    path = tmp_path / "clash.json"
    mc.save_graph(clash_chain(), path)
    for command in ("alg1", "alg2", "compare"):
        assert main([command, "--input", str(path)]) == 0, capsys.readouterr().err


def test_remove_arc_tracks_contracted_tail():
    wg = priced(square())
    vid = merge(wg, {1, 2}, 2)
    (p,) = [p for p in wg.min_arcs(vid) if wg.arcs[p].pair() == (2, 3)]
    assert wg.transfer(p, wg.u_min[vid]).weight == F(3)
    assert set(exits(wg, vid)) == {(1, 3)}


def test_triangle_cycle_contraction_by_hand():
    """Collapsing the 2-cycle of a triangle leaves one exit arc per tail."""
    g = mc.chain_graph([(1, 2, 1), (2, 1, 2), (2, 3, 2), (3, 1, 5)])
    wg = priced(g)
    vid = merge(wg, {1, 2}, 2)
    assert current(wg, (1, 2, 3)) == {frozenset({1, 2}), 3}
    from_3 = exits(wg, wg.vertex_of(3))
    assert wg.vertex_of(from_3[(3, 1)].head) == vid
    out = exits(wg, vid)
    assert set(out) == {(2, 3)}
    assert out[(2, 3)].weight == F(2)  # 2 - 2 + 2


class EagerGraph:
    """Reference for ``WorkingGraph``: every exit arc repriced at once with
    the Fraction-level rules ``updated_weight``/``updated_prefactor``."""

    def __init__(self, g):
        self.members = {s: {s} for s in g.states}  # current vertex -> its states
        self.out = {s: {a.pair(): (a.weight, a.kappa) for a in g.out_arcs(s)} for s in g.states}
        self.u_min = {}

    def min_arcs(self, v, order):
        arcs = self.out[v]
        if not arcs:
            return []
        w = self.u_min[v] = min(w for w, _k in arcs.values())
        return sorted(((p, w, k) for p, (w2, k) in arcs.items() if w2 == w), key=order)

    def contract(self, vs, threshold, kappa_min=None, kappa_last=None):
        states = set().union(*(self.members.pop(v) for v in vs))
        out = {}
        for v in vs:
            for (t, h), (w, k) in self.out.pop(v).items():
                if h in states:
                    continue
                if kappa_last is not None:
                    k = updated_prefactor(k, kappa_min[v], kappa_last)
                out[t, h] = (updated_weight(w, self.u_min[v], threshold), k)
        sv = frozenset(states)
        self.members[sv], self.out[sv] = states, out
        return sv


def bits(kappa):
    return None if kappa is None else kappa.hex()


@given(chain_graphs(min_n=3), st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_lazy_repricing_matches_an_eager_reference(g, rnd):
    """After random reads, transfers and contractions (with and without a
    closing prefactor), every current vertex's ``min_arcs`` equals the
    eager reference: pairs, tie order, weights and prefactor bits.
    ``min_arc`` gives its first arc and whether it holds another."""
    if rnd.random() < 0.5:  # prefactors on a third of the chains or so
        g = mc.chain_graph([(a.tail, a.head, a.weight, rnd.uniform(0.1, 9)) for a in g.arcs])
    revlex = rnd.random() < 0.5
    wg, ref = WorkingGraph(g, revlex=revlex), EagerGraph(g)

    def order(entry):
        (t, h), _w, _k = entry
        key = (state_key(t), state_key(h))
        return tuple(-x[1] for x in key) if revlex else key

    def check(v):
        ids = wg.min_arcs(v)
        got = [(wg.arcs[p].pair(), F(wg.u_min[v], wg.scale), bits(wg.kappa[p])) for p in ids]
        want = [(p, w, bits(k)) for p, w, k in ref.min_arcs(members(wg.vertex[v]), order)]
        assert got == want
        assert wg.min_arcs(v) == ids
        assert wg.min_arc(v) == ((ids[0], len(ids) > 1) if ids else (None, False))
        return ids

    def vids():
        return sorted({wg.vertex_of(s) for s in g.states})

    for _step in range(rnd.randint(1, 3 * g.n)):
        live = vids()
        if len(live) < 2:
            break
        if rnd.random() < 0.4:  # take one arc, or a whole least-weight group
            v = rnd.choice(live)
            ids = check(v)
            for p in ids if rnd.random() < 0.5 else ids[:1]:
                kappa = bits(wg.kappa[p])
                taken = wg.transfer(p, wg.u_min[v])
                assert (taken.pair(), bits(taken.kappa)) == (wg.arcs[p].pair(), kappa)
                assert ref.out[members(wg.vertex[v])].pop(taken.pair())[0] == taken.weight
            continue
        group = rnd.sample(live, rnd.randint(2, min(4, len(live))))
        for v in group:
            check(v)
        threshold = F(rnd.randint(0, 40 * wg.scale), wg.scale)
        kw = {}
        if g.has_prefactors and rnd.random() < 0.7:
            kw = {"kappa_min": {v: rnd.uniform(0.1, 9) for v in group}, "kappa_last": rnd.uniform(0.1, 9)}
        sv = wg.contract(group, (threshold * wg.scale).numerator, **kw)
        if kw:
            kw["kappa_min"] = {members(wg.vertex[v]): k for v, k in kw["kappa_min"].items()}
        got = members(wg.vertex[sv])
        assert got == ref.contract([members(wg.vertex[v]) for v in group], threshold, **kw)
    for v in vids():
        assert ref.members[members(wg.vertex[v])] == {s for s in g.states if wg.vertex_of(s) == v}
        check(v)
