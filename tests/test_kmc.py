"""Trajectory sampling, transition censuses and distributional checks."""

import csv
import io
import math

import numpy as np
import pytest

import metachain as mc
from metachain.demos import two_state_chain
from metachain.kmc import GENERATOR_NAME, KS_CRITICAL_1PCT, exponential_ks, mean_occupancy

TWO = two_state_chain()


def test_seed_reproducibility():
    a = mc.simulate(TWO, 0.5, 1, 200.0, seed=42)
    b = mc.simulate(TWO, 0.5, 1, 200.0, seed=42)
    assert a == b
    c = mc.simulate(TWO, 0.5, 1, 200.0, seed=43)
    assert a.jumps != c.jumps
    assert a.generator_name == GENERATOR_NAME == "numpy-PCG64"


def test_trajectory_bookkeeping():
    tr = mc.simulate(TWO, 0.5, 1, 200.0, seed=42)
    assert tr.initial == 1 and tr.epsilon == 0.5
    assert not tr.absorbed and not tr.truncated
    assert tr.end_time() == 200.0
    visited = tr.states_visited()
    assert visited[0] == 1
    assert len(visited) == tr.n_jumps + 1
    times = [t for t, _a in tr.jumps]
    assert times == sorted(times) and all(0 < t <= 200.0 for t in times)
    # alternating two-state path: every jump flips the state
    assert all(a.tail != a.head for _t, a in tr.jumps)
    occ = tr.occupancy()
    assert sum(occ.values()) == pytest.approx(1.0)
    held = tr.holding_times()
    assert sum(len(v) for v in held.values()) == tr.n_jumps
    assert held[1][0] == tr.jumps[0][0]


def test_simulate_guard_rails():
    with pytest.raises(mc.GraphError):
        mc.simulate(TWO, 0.5, 9, 10.0, seed=1)
    with pytest.raises(mc.GraphError):
        mc.simulate(TWO, 0.5, 1, 0.0, seed=1)
    with pytest.raises(ValueError):
        mc.simulate(TWO, -0.5, 1, 10.0, seed=1)


def test_absorption_ends_the_walk():
    g = mc.chain_graph([(1, 2, 1)], states=[1, 2])
    tr = mc.simulate(g, 0.5, 1, 1e9, seed=7)
    assert tr.absorbed and not tr.truncated
    assert tr.n_jumps == 1 and tr.states_visited() == [1, 2]


def test_event_cap_flags_truncation():
    tr = mc.simulate(TWO, 0.5, 1, 1e9, seed=7, max_events=3)
    assert tr.truncated and tr.n_jumps == 3
    assert tr.end_time() == tr.jumps[-1][0]


def test_ensemble_spawns_distinct_seeds():
    trajs = mc.simulate_ensemble(TWO, 0.5, 1, 50.0, 5, seed=9)
    assert len(trajs) == 5
    assert len({t.seed for t in trajs}) == 5
    again = mc.simulate_ensemble(TWO, 0.5, 1, 50.0, 5, seed=9)
    assert trajs == again
    with pytest.raises(mc.GraphError):
        mc.simulate_ensemble(TWO, 0.5, 1, 50.0, 0, seed=9)


def test_census_counts_and_serialization():
    trajs = mc.simulate_ensemble(TWO, 0.5, 1, 200.0, 4, seed=11)
    cen = mc.census(trajs, (0.0, 200.0))
    assert cen.total_jumps == sum(t.n_jumps for t in trajs)
    assert cen.total_jumps == sum(cen.per_trajectory)
    assert set(cen.counts) <= {(1, 2), (2, 1)}
    assert cen.seeds == tuple(t.seed for t in trajs)
    csv = cen.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "arc,window,count,frequency"
    assert lines[1].startswith("1->2,(0.0;200.0],")
    doc = cen.to_json_dict()
    assert doc["kind"] == "transition-census"
    assert doc["generator"] == "numpy-PCG64"
    assert sum(c for _t, _h, c in doc["counts"]) == cen.total_jumps


# the int 1 and the string "1" print alike but are different states
MIXED = mc.chain_graph([(1, "1", 1), ("1", 1, 1), (1, 2, 3), (2, 1, 1), ("1", 2, 3), (2, "1", 1)])


def test_census_keeps_states_that_print_alike_apart():
    trajs = mc.simulate_ensemble(MIXED, 1.0, 1, 50.0, 20, 0)
    cov = mc.census_vs_tgraph(trajs, mc.run_algorithm2(MIXED).tgraphs[1], (0.0, 50.0))
    cen = cov.census
    assert len(cen.counts) == 6
    doc = cov.to_json_dict()
    entries = doc["census"]["counts"]
    assert [(t, h) for t, h, _c in entries] == [(1, 2), (1, "1"), (2, 1), (2, "1"), ("1", 1), ("1", 2)]
    assert sum(c for _t, _h, c in entries) == cen.total_jumps == doc["census"]["total_jumps"]
    assert {(t, h): c for t, h, c in doc["off_arcs"]} == cov.off_arcs
    assert sum(c for _t, _h, c in doc["off_arcs"]) == cov.off_count
    rows = list(csv.reader(io.StringIO(cen.to_csv())))[1:]
    assert [r[0] for r in rows] == ['1->2', '1->"1"', '2->1', '2->"1"', '"1"->1', '"1"->2']
    assert sum(int(r[2]) for r in rows) == cen.total_jumps


def test_census_window_validation():
    trajs = mc.simulate_ensemble(TWO, 0.5, 1, 50.0, 2, seed=11)
    with pytest.raises(mc.GraphError):
        mc.census(trajs, (5.0, 5.0))
    with pytest.raises(mc.GraphError):
        mc.census(trajs, (-1.0, 5.0))
    with pytest.raises(mc.GraphError):
        mc.census([], (0.0, 5.0))
    other = mc.simulate(TWO, 0.25, 1, 50.0, seed=3)
    with pytest.raises(mc.GraphError):
        mc.census(list(trajs) + [other], (0.0, 5.0))


def test_coverage_against_transition_graph():
    g = mc.nested_cycle_chain_integer()
    t2 = mc.run_algorithm2(g).tgraphs[2]
    hor = math.exp(3 / 0.3)
    trajs = mc.simulate_ensemble(g, 0.3, 1, hor, 2500, seed=4000)
    rep = mc.census_vs_tgraph(trajs, t2, (0.0, hor))
    assert rep.coverage == pytest.approx(0.957063, abs=1e-6)
    assert rep.on_count == 9228 and rep.off_count == 414
    assert rep.on_count + rep.off_count == rep.census.total_jumps
    # everything off the predicted arcs still moves along real arcs
    assert set(rep.off_arcs) == {(1, 5), (1, 6), (2, 5), (7, 6)}
    assert 0 < rep.stderr < 0.005
    doc = rep.to_json_dict()
    assert doc["kind"] == "coverage-report"
    assert doc["on_count"] + doc["off_count"] == doc["census"]["total_jumps"]


def test_coverage_needs_jumps():
    trajs = mc.simulate_ensemble(TWO, 0.5, 1, 50.0, 2, seed=11)
    tg = mc.run_algorithm1(TWO).tgraphs[1]
    with pytest.raises(mc.GraphError):
        mc.census_vs_tgraph(trajs, tg, (0.0, 1e-12))


def test_occupancy_matches_stationary_law():
    trajs = mc.simulate_ensemble(TWO, 0.5, 2, 400.0, 200, seed=78)
    mean, se = mean_occupancy(trajs, 2)
    pi2 = 1 / (1 + math.exp(-2))
    assert abs(mean - pi2) <= 3 * se
    with pytest.raises(mc.GraphError):
        mean_occupancy(trajs[:1], 2)


def test_holding_times_are_exponential():
    tr = mc.simulate(TWO, 0.5, 2, 1e9, seed=12345, max_events=400)
    h1 = tr.holding_times()[1]
    assert len(h1) == 200
    res = exponential_ks(h1, math.exp(-2.0))
    assert res.passed and res.critical_value == KS_CRITICAL_1PCT
    assert res.statistic == pytest.approx(0.70759, abs=1e-4)


def test_ks_statistic_separates_rates():
    rng = np.random.default_rng(5)
    xs = rng.exponential(2.0, 800)
    assert exponential_ks(xs, 0.5).passed
    assert not exponential_ks(xs, 5.0).passed
    with pytest.raises(mc.GraphError):
        exponential_ks([], 1.0)
