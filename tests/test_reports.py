"""Report storage and JSON schemas (3 for alg1, 4 for alg2): shared transfer
prefixes, flat contraction trees, keys derived instead of written, deep
chains, and the linear-time sweep cross-check."""

import dataclasses
import functools
import gc
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metachain as mc
from conftest import chain_graphs, deep_funnel, derived_report_keys
from metachain.alg1 import Alg1Report, cycle_hierarchy
from metachain.alg2 import _expanded_adjacency, class_hierarchy
from metachain.chain import closed_communicating_classes
from metachain.cli import main
from metachain.graphio import format_rational


def tree_depth(flat: list) -> int:
    """Levels of cycles above the deepest leaf of a flat contraction tree."""
    depth = [0] * len(flat)
    for i, node in enumerate(flat):
        if node["kind"] == "cycle":
            depth[i] = 1 + max(depth[c] for c in node["children"])
    return max(depth)


def _frame_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_chain_reports_need_no_recursion(tmp_path):
    n = 300
    g = deep_funnel(n)
    path = tmp_path / "deep.json"
    mc.save_graph(g, path)
    limit = _frame_depth() + 60
    assert limit < n // 2
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        r1 = mc.run_algorithm1(g)
        r2 = mc.run_algorithm2(g)
        roots1 = cycle_hierarchy(r1)
        roots2 = class_hierarchy(r2)
        text1 = mc.dump_json(r1.to_json_dict())
        text2 = mc.dump_json(r2.to_json_dict())
        codes = [
            main([alg, "--input", str(path), "--out", str(tmp_path / f"{alg}.json")])
            for alg in ("alg1", "alg2")
        ]
    finally:
        sys.setrecursionlimit(old)
    assert codes == [0, 0]
    # the simultaneous sweep stops at full closure, one contraction short
    assert [len(roots1), len(roots2)] == [1, 2]
    for text, name, depth, schema in ((text1, "alg1", n - 1, 3), (text2, "alg2", n - 2, 4)):
        doc = json.loads(text)
        assert doc["schema"] == schema
        assert tree_depth(doc["contraction_tree"]) == depth
        assert (tmp_path / f"{name}.json").read_text() == text


def test_alg1_json_schema_3():
    rep = mc.run_algorithm1(mc.nested_cycle_chain())
    doc = rep.to_json_dict()
    assert doc["schema"] == 3
    assert not {"tgraphs", "gamma_float", "delta_float"} & set(doc)
    assert [(t["from"], t["to"], t["U"]) for t in doc["transfers"]] == [
        (a.tail, a.head, format_rational(a.weight)) for a in rep.transfers
    ]
    assert derived_report_keys(doc)["tgraphs"] == [
        {"threshold": format_rational(t.threshold), "end": k}
        for k, t in enumerate(rep.tgraphs)
    ]
    flat = doc["contraction_tree"]
    referenced = [c for node in flat for c in node.get("children", ())]
    assert sorted(referenced) == sorted(set(referenced))
    assert all(c < i for i, node in enumerate(flat) for c in node.get("children", ()))
    roots = [i for i in range(len(flat)) if i not in set(referenced)]
    assert roots == [len(flat) - 1]
    assert flat[-1]["kind"] == "cycle" and flat[-1]["index"] == 3
    assert sorted(node["id"] for node in flat if node["kind"] == "state") == list(range(1, 8))
    assert tree_depth(flat) == 3


def test_alg2_json_schema_4():
    rep = mc.run_algorithm2(mc.nested_cycle_chain_integer())
    doc = rep.to_json_dict()
    assert doc["schema"] == 4
    assert not {"classes", "tgraphs", "theta_float"} & set(doc)
    assert len(doc["transfers"]) == len(rep.transfers) == 12
    tgraphs = derived_report_keys(doc)["tgraphs"]
    assert [t["end"] for t in tgraphs] == [0, 2, 8, 12]
    assert [t["threshold"] for t in tgraphs] == ["0", "1", "3", "4"]
    flat = doc["contraction_tree"]
    assert [node["kind"] for node in flat] == ["state"] * 3 + ["cycle"] + ["state"] * 4
    assert flat[3]["children"] == [0, 1, 2]
    # the class's members and step, read from the tree and theta
    assert [flat[c]["id"] for c in flat[3]["children"]] == [1, 2, 3]
    assert doc["theta"].index(flat[3]["birth"]) + 1 == rep.classes[0].step == 2


def test_tgraph_views_slice_and_compare():
    rep = mc.run_algorithm1(mc.nested_cycle_chain())
    tail = rep.tgraphs[3:]
    assert len(tail) == len(rep.tgraphs) - 3
    assert tail[0] == rep.tgraphs[3]
    assert [t.arcs for t in tail] == [rep.transfers[:k] for k in range(3, rep.K + 1)]
    assert rep.tgraphs[-1].arcs == rep.transfers
    assert rep.tgraphs[2] != rep.tgraphs[3]


def test_custom_stop_sees_the_prefix_so_far():
    seen = []

    def stop(tgraph, w):
        seen.append(tgraph)
        return len(seen) == 4

    g = mc.nested_cycle_chain()
    rep = mc.run_algorithm1(g, stop=mc.StopCriterion.custom(stop))
    full = mc.run_algorithm1(g)
    assert rep.stop_reason == "custom" and rep.K == 4
    assert [t.arcs for t in seen] == [full.transfers[:k] for k in range(1, 5)]
    assert [t.threshold for t in seen] == list(full.gamma[:4])


@given(chain_graphs())
def test_tgraphs_are_prefixes_of_the_transfers(g):
    r1 = mc.run_algorithm1(g)
    assert len(r1.tgraphs) == r1.K + 1
    for k, tg in enumerate(r1.tgraphs):
        assert tg.arcs == r1.transfers[:k]
        assert tg.threshold == (r1.gamma[k - 1] if k else 0)
    r2 = mc.run_algorithm2(g)
    released: list = []
    assert r2.tgraphs[0].arcs == ()
    for p, step in enumerate(r2.transfers_by_step, start=1):
        released.extend(step)
        assert r2.tgraphs[p].arcs == tuple(released)
        assert r2.tgraphs[p].threshold == r2.theta[p - 1]
    assert r2.transfers == tuple(released)


def reference_comparison(g, r1, r2) -> list:
    """Statements 1-4 recomputed from whole arc sets at every window."""

    def strs(items):
        return list(map(str, items))

    def names(classes):
        return [sorted(strs(c)) for c in classes]

    distinct = tuple(sorted(set(r1.gamma)))
    s1 = (True, "distinct exponents agree")
    if distinct != r2.theta:
        s1 = (False, f"distinct exponents differ: {strs(distinct)} vs {strs(r2.theta)}")
    k_index = [sum(1 for w in r1.gamma if w <= th) for th in r2.theta]
    s2 = (True, "every partial arc set is contained in its matching window")
    windows = list(zip(range(1, len(k_index) + 1), [0] + k_index, k_index))
    for p, k in [(p, k) for p, lo, hi in windows for k in range(lo + 1, hi + 1)]:
        extra = sorted(r1.tgraphs[k].pairs() - r2.tgraphs[p].pairs())
        if extra:
            s2 = (False, f"step {k} holds arcs outside window {p}: {extra}")
            break
    if s2[0] and k_index and k_index[-1] != r1.K:
        s2 = (False, f"window index ends at {k_index[-1]} but the sweep took {r1.K} steps")
    s3 = (True, "nontrivial closed classes coincide at every matching index")
    s4 = (True, "absorbing vertices coincide at every matching index")
    for p, kp in enumerate(k_index, start=1):
        cc1, cc2 = (
            closed_communicating_classes(_expanded_adjacency(t.arcs), vertices=g.states)
            for t in (r1.tgraphs[kp], r2.tgraphs[p])
        )
        where = f"at window {p} (step {kp}): "
        if set(cc1.nontrivial) != set(cc2.nontrivial):
            s3 = (False, where + f"{names(cc1.nontrivial)} vs {names(cc2.nontrivial)}")
        if cc1.absorbing != cc2.absorbing:
            s4 = (False, where + f"{strs(cc1.absorbing)} vs {strs(cc2.absorbing)}")
    return [s1, s2, s3, s4]


@given(st.data())
def test_comparison_matches_reference(data):
    g = data.draw(chain_graphs())
    # half the time the second sweep runs on another chain over the same
    # states, so the statements fail and their details are compared too
    h = data.draw(st.one_of(st.just(g), chain_graphs(n=g.n)))
    r1, r2 = mc.run_algorithm1(g), mc.run_algorithm2(h)
    got = mc.compare_alg1_alg2(g, r1=r1, r2=r2)
    assert [(s.ok, s.detail) for s in got.statements] == reference_comparison(g, r1, r2)


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("tie_break", ["lex", "revlex"])
@pytest.mark.parametrize("name", sorted(p.name.split(".")[0] for p in GOLDEN.glob("*.graph.json")))
def test_comparison_matches_reference_on_golden_graphs(name, tie_break):
    """Windows equal on both sides, then differing, then fed to the
    closed-class tracker in one batch."""
    g = mc.load_graph(GOLDEN / f"{name}.graph.json")
    r1, r2 = mc.run_algorithm1(g, tie_break=tie_break), mc.run_algorithm2(g)
    got = mc.compare_alg1_alg2(g, r1=r1, r2=r2)
    assert [(s.ok, s.detail) for s in got.statements] == reference_comparison(g, r1, r2)


def test_a_repeated_arc_never_makes_a_window_equal():
    """Transfers that repeat one arc in place of another still fit each
    window and count as many pairs as it holds, yet their arc set differs."""
    g = mc.nested_cycle_chain()
    r1, r2 = mc.run_algorithm1(g), mc.run_algorithm2(g)
    caught = 0
    for i, j in itertools.permutations(range(r1.K), 2):
        transfers = r1.transfers[:j] + (r1.transfers[i],) + r1.transfers[j + 1:]
        tgraphs = dataclasses.replace(r1.tgraphs, transfers=transfers)
        bad = dataclasses.replace(r1, transfers=transfers, tgraphs=tgraphs)
        want = reference_comparison(g, bad, r2)
        got = mc.compare_alg1_alg2(g, r1=bad, r2=r2)
        assert [(s.ok, s.detail) for s in got.statements] == want
        caught += want[1][0] and not (want[2][0] and want[3][0])
    assert caught  # some repeat passes statement 2 and fails 3 or 4


@st.composite
def swept_reports(draw):
    """A report of alg1 (lex or revlex) or alg2 on a 3-9-state chain, run
    to the end or to a stop the sweep takes."""
    g = draw(chain_graphs(min_n=3))
    sweep = draw(st.sampled_from(["lex", "revlex", "alg2"]))
    weights = sorted({a.weight for a in g.arcs})
    stops = [None, mc.StopCriterion.exponent_threshold(draw(st.sampled_from(weights)))]
    if sweep == "alg2":
        a, b = (draw(st.sets(st.sampled_from(g.states), min_size=1)) for _ in range(2))
        stops.append(mc.StopCriterion.class_covering(a, b))
        return mc.run_algorithm2(g, stop=draw(st.sampled_from(stops)))
    stops.append(mc.StopCriterion.bucket_size_one())
    return mc.run_algorithm1(g, stop=draw(st.sampled_from(stops)), tie_break=sweep)


@settings(max_examples=300)
@given(swept_reports())
def test_dropped_keys_derive_from_the_written_report(rep):
    doc = json.loads(mc.dump_json(rep.to_json_dict()))
    derived = derived_report_keys(doc)
    assert not set(derived) & set(doc)
    tg = rep.tgraphs
    assert derived["tgraphs"] == [
        {"end": e, "threshold": format_rational(t)} for e, t in zip(tg.ends, tg.thresholds)
    ]
    assert [t.threshold for t in tg] == [Fraction(t["threshold"]) for t in derived["tgraphs"]]
    assert [len(t.arcs) for t in tg] == [t["end"] for t in derived["tgraphs"]]
    if isinstance(rep, Alg1Report):
        assert derived["gamma_float"] == [float(w) for w in rep.gamma]
        assert derived["delta_float"] == [None if d is None else float(d) for d in rep.delta]
    else:
        assert derived["theta_float"] == [float(w) for w in rep.theta]


@pytest.mark.parametrize("module, builder, run", [
    ("metachain.alg1", "cycle_hierarchy", mc.run_algorithm1),
    ("metachain.alg2", "class_hierarchy", mc.run_algorithm2),
    ("metachain.alg2", "_PairedClosedClasses", mc.compare_alg1_alg2),
    ("metachain.kmc", "_walk", mc.simulate),
    ("metachain.kmc", "_walk", mc.simulate_ensemble),
])
@pytest.mark.parametrize("was_enabled", [True, False])
def test_report_building_restores_the_collector(monkeypatch, module, builder, run, was_enabled):
    g = mc.nested_cycle_chain()
    samplers = {mc.simulate: (0,), mc.simulate_ensemble: (3, 0)}  # [n,] seed
    if run is mc.compare_alg1_alg2:  # the comparison as a whole is paused
        g = mc.nested_cycle_chain_integer()  # windows 2 and 3 differ, so the tracker runs
        paused = functools.partial(run, g, "lex", mc.run_algorithm1(g), mc.run_algorithm2(g))
    elif run in samplers:  # so is a sampler, which keeps every jump live
        paused = functools.partial(run, g, 1.0, 1, 10.0, *samplers[run])
    else:  # a sweep is paused only while its report is written
        paused = run(g).to_json_dict

    def boom(*_args):
        assert not gc.isenabled()
        raise RuntimeError("boom")

    monkeypatch.setattr(f"{module}.{builder}", boom)
    (gc.enable if was_enabled else gc.disable)()
    try:
        with pytest.raises(RuntimeError, match="boom"):
            paused()
        assert gc.isenabled() is was_enabled
    finally:
        gc.enable()
