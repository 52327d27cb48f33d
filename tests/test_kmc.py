"""Trajectory sampling, transition censuses and distributional checks."""

import csv
import io
import itertools
import math
import random
import re
import sys
from fractions import Fraction
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metachain as mc
from conftest import mean_occupancy, occupancy
from metachain.chain import arc_rate, check_epsilon
from metachain.demos import two_state_chain
from metachain.kmc import GENERATOR_NAME, _rate_tables

TWO = two_state_chain()

# Asymptotic Kolmogorov-Smirnov critical value at significance 0.01.
KS_CRITICAL_1PCT = 1.628


def states_visited(tr) -> list:
    out = [tr.initial]
    out.extend(arc.head for arc in tr.arcs)
    return out


def holding_times(tr) -> dict:
    """Completed holding times per state (the final unfinished one is dropped)."""
    out: dict = {}
    t_prev = 0.0
    state = tr.initial
    for t, arc in zip(tr.times, tr.arcs):
        out.setdefault(state, []).append(t - t_prev)
        t_prev = t
        state = arc.head
    return out


class KSResult(NamedTuple):
    statistic: float
    n_samples: int
    critical_value: float
    passed: bool


def exponential_ks(samples, rate: float) -> KSResult:
    """Kolmogorov-Smirnov test of samples against Exp(rate), significance 0.01.

    The rate is a finite positive real (not a bool) and every sample a
    finite number >= 0; anything else is refused with ``GraphError``."""
    try:
        rate = check_epsilon(rate)  # the same rule as an epsilon's
    except ValueError:
        raise mc.GraphError(f"rate must be a finite positive real, got {rate!r}") from None
    xs = np.sort(np.asarray(list(samples), dtype=float))
    n = len(xs)
    if n == 0:
        raise mc.GraphError("KS test needs at least one sample")
    if not (np.isfinite(xs) & (xs >= 0)).all():
        raise mc.GraphError("KS test samples must be finite and >= 0")
    cdf = 1.0 - np.exp(-rate * xs)
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    d = float(max(upper, lower)) * math.sqrt(n)
    crit = KS_CRITICAL_1PCT
    return KSResult(statistic=d, n_samples=n, critical_value=crit, passed=d <= crit)


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
    visited = states_visited(tr)
    assert visited[0] == 1
    assert len(visited) == tr.n_jumps + 1
    times = [t for t, _a in tr.jumps]
    assert times == sorted(times) and all(0 < t <= 200.0 for t in times)
    # alternating two-state path: every jump flips the state
    assert all(a.tail != a.head for _t, a in tr.jumps)
    occ = occupancy(tr)
    assert sum(occ.values()) == pytest.approx(1.0)
    held = holding_times(tr)
    assert sum(len(v) for v in held.values()) == tr.n_jumps
    assert held[1][0] == tr.jumps[0][0]


def test_simulate_guard_rails():
    with pytest.raises(mc.GraphError):
        mc.simulate(TWO, 0.5, 9, 10.0, seed=1)
    with pytest.raises(mc.GraphError):
        mc.simulate(TWO, 0.5, 1, 0.0, seed=1)
    with pytest.raises(ValueError):
        mc.simulate(TWO, -0.5, 1, 10.0, seed=1)


@pytest.mark.parametrize("x0", [9, "1", None, 1.5])
def test_an_unknown_start_state_is_refused_by_name(x0):
    expected = f"^unknown start state {re.escape(repr(x0))}$"
    with pytest.raises(mc.GraphError, match=expected):
        mc.simulate(TWO, 0.5, x0, 10.0, seed=1)
    with pytest.raises(mc.GraphError, match=expected):
        mc.simulate_ensemble(TWO, 0.5, x0, 10.0, 2, seed=1)


@pytest.mark.parametrize("horizon", [0, -1.0, math.nan, -math.inf, True, False, "5", None, 1j])
def test_horizon_must_be_a_positive_real(horizon):
    with pytest.raises(mc.GraphError, match="horizon"):
        mc.simulate(TWO, 0.5, 1, horizon, seed=1)
    with pytest.raises(mc.GraphError, match="horizon"):
        mc.simulate_ensemble(TWO, 0.5, 1, horizon, 2, seed=1)


def test_horizon_takes_any_real_type_and_infinity():
    for horizon in (math.inf, 10**400):
        tr = mc.simulate(TWO, 0.5, 1, horizon, seed=1, max_events=5)
        assert tr.truncated and tr.n_jumps == 5 and tr.horizon == math.inf
    for horizon in (50, np.float64(50.0), Fraction(50)):
        assert mc.simulate(TWO, 0.5, 1, horizon, seed=3) == mc.simulate(TWO, 0.5, 1, 50.0, seed=3)


def test_absorption_ends_the_walk():
    g = mc.chain_graph([(1, 2, 1)], states=[1, 2])
    tr = mc.simulate(g, 0.5, 1, 1e9, seed=7)
    assert tr.absorbed and not tr.truncated
    assert tr.n_jumps == 1 and states_visited(tr) == [1, 2]


def test_a_trajectory_stores_16_bytes_per_jump():
    tr = mc.simulate(TWO, 0.5, 1, 1e9, seed=7, max_events=10_000)
    assert tr.truncated and tr.n_jumps == len(tr.times) == len(tr.arcs) == 10_000
    assert sys.getsizeof(tr.times) + sys.getsizeof(tr.arcs) <= 16 * 10_000 + 256
    assert tr.times.typecode == "d" and type(tr.arcs) is tuple
    # every stored arc is one of the graph's own objects, not a copy
    assert all(any(arc is own for own in TWO.arcs) for arc in tr.arcs)


def test_jumps_is_a_view_of_the_two_columns():
    a = mc.simulate(TWO, 0.5, 1, 2000.0, seed=42)
    jumps = a.jumps
    pairs = tuple(zip(a.times, a.arcs))
    assert len(jumps) == a.n_jumps == len(pairs) > 3
    assert jumps[0] == pairs[0] and jumps[-1] == pairs[-1] and jumps[-2] == pairs[-2]
    assert jumps[1:3] == pairs[1:3] and jumps[::-1] == pairs[::-1] and jumps[5:2] == ()
    with pytest.raises(IndexError):
        jumps[len(pairs)]
    assert isinstance(iter(jumps), zip) and tuple(jumps) == pairs and list(jumps) == list(pairs)  # no copy
    assert jumps == pairs and pairs == jumps and not jumps != pairs
    assert jumps != pairs[:-1] and jumps != pairs[:-1] + (pairs[0],) and jumps != list(pairs)
    assert jumps == reference_walk(TWO, 0.5, 1, 2000.0, 42)[0]
    b = mc.simulate(TWO, 0.5, 1, 2000.0, seed=42)
    assert a == b and hash(a) == hash(b) and a.jumps == b.jumps and a.jumps is not b.jumps
    c = mc.simulate(TWO, 0.5, 1, 2000.0, seed=43)
    assert a.jumps != c.jumps and a != c
    assert a.jumps != mc.simulate(TWO, 0.5, 1, 1000.0, seed=42).jumps


def test_event_cap_flags_truncation():
    tr = mc.simulate(TWO, 0.5, 1, 1e9, seed=7, max_events=3)
    assert tr.truncated and tr.n_jumps == 3
    assert tr.end_time() == tr.jumps[-1][0]


@pytest.mark.parametrize("cap", [0, -5, 2.5, True, "3", None])
def test_event_cap_must_be_a_positive_int(cap):
    with pytest.raises(mc.GraphError, match="max_events"):
        mc.simulate(TWO, 0.5, 1, 1e9, seed=7, max_events=cap)
    with pytest.raises(mc.GraphError, match="max_events"):
        mc.simulate_ensemble(TWO, 0.5, 1, 1e9, 2, seed=7, max_events=cap)


def test_event_cap_takes_any_integer_type():
    tr = mc.simulate(TWO, 0.5, 1, 1e9, seed=7, max_events=np.int64(3))
    assert tr.truncated and tr.n_jumps == 3
    assert tr == mc.simulate(TWO, 0.5, 1, 1e9, seed=7, max_events=3)


@pytest.mark.parametrize("n", [0, -1, 2.5, True, "3", None])
def test_ensemble_size_must_be_a_positive_int(n):
    with pytest.raises(mc.GraphError, match="ensemble size"):
        mc.simulate_ensemble(TWO, 0.5, 1, 5.0, n, seed=1)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "7", None])
def test_seed_must_be_a_nonnegative_int(seed):
    with pytest.raises(mc.GraphError, match="seed"):
        mc.simulate(TWO, 0.5, 1, 5.0, seed=seed)
    with pytest.raises(mc.GraphError, match="seed"):
        mc.simulate_ensemble(TWO, 0.5, 1, 5.0, 2, seed=seed)


def test_size_and_seed_take_any_integer_type():
    trajs = mc.simulate_ensemble(TWO, 0.5, 1, 50.0, np.int64(3), seed=np.uint64(9))
    assert trajs == mc.simulate_ensemble(TWO, 0.5, 1, 50.0, 3, seed=9)
    tr = mc.simulate(TWO, 0.5, 1, 50.0, seed=np.int64(0))
    assert tr == mc.simulate(TWO, 0.5, 1, 50.0, seed=0) and type(tr.seed) is int


@pytest.mark.parametrize("weight, epsilon, total", [
    (1, 0.001, "0.0"),  # exp(-1000) underflows to 0
    (740, 1.0, "4.2"),  # exp(-740) is subnormal: 1 / total overflows
])
def test_a_state_that_cannot_leave_is_refused(weight, epsilon, total):
    g = mc.chain_graph([(1, 2, weight), (2, 1, Fraction(1, 1000))])
    expected = rf"state 1 has total exit rate {total}.* at epsilon={epsilon}"
    with pytest.raises(mc.GraphError, match=expected):
        mc.simulate(g, epsilon, 2, 10.0, seed=1)
    with pytest.raises(mc.GraphError, match=expected):
        mc.simulate_ensemble(g, epsilon, 2, math.inf, 3, seed=1)


# 1 and 2 joined both ways at U = 1; 3 -> 1 cannot be reached from 1 and
# its one rate, exp(-800) or 1e-310 * exp(-1), leaves no finite holding time
@pytest.mark.parametrize("arcs, total", [
    ([(1, 2, 1), (2, 1, 1), (3, 1, 800)], "0.0"),
    ([(1, 2, 1, 1.0), (2, 1, 1, 1.0), (3, 1, 1, 1e-310)], "3.6"),  # subnormal: 1 / total overflows
])
def test_an_unreachable_state_that_cannot_leave_is_refused(arcs, total):
    g = mc.chain_graph(arcs)
    expected = rf"^state 3 has total exit rate {total}.* at epsilon=1.0, so its holding time is not finite"
    with pytest.raises(mc.GraphError, match=expected):
        mc.simulate(g, 1.0, 1, 10.0, seed=1)
    with pytest.raises(mc.GraphError, match=expected):
        mc.simulate_ensemble(g, 1.0, 1, 10.0, 3, seed=1)


@st.composite
def chains_near_underflow(draw):
    """2-6-state chains whose exponents (at epsilon 0.5-1.5) and prefactors
    straddle the edge where a state's total exit rate stops being a normal
    double, with a start state."""
    n = draw(st.integers(2, 6))
    states = list(range(1, n + 1))
    pairs = [(a, b) for a in states for b in states if a != b]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=2 * n, unique=True))
    arcs = [(t, h, draw(st.sampled_from([1, 350, 699, 700, 701, 709, 710, 745, 800]))) for t, h in chosen]
    if draw(st.booleans()):
        arcs = [arc + (draw(st.sampled_from([1e-310, 1e-300, 1.0, 1e300])),) for arc in arcs]
    return mc.chain_graph(arcs, states=states), draw(st.sampled_from([0.5, 1.0, 1.5])), draw(st.sampled_from(states))


def first_stuck_state(g, epsilon):
    """The first state, in state order, whose holding time is not finite."""
    for s in g.states:
        rates = [arc_rate(a, epsilon) for a in g.out_arcs(s)]
        if rates:
            total = float(np.cumsum(rates)[-1])
            if not (total > 0 and math.isfinite(1.0 / total)):
                return s
    return None


@settings(max_examples=300)
@given(chains_near_underflow(), st.integers(0, 2**32))
def test_a_call_is_refused_whenever_some_state_cannot_leave(case, seed):
    g, eps, x0 = case
    stuck = first_stuck_state(g, eps)
    calls = (
        lambda: mc.simulate(g, eps, x0, 1e300, seed, max_events=20),
        lambda: mc.simulate_ensemble(g, eps, x0, 1e300, 2, seed, max_events=20),
    )
    for call in calls:
        if stuck is None:
            call()
        else:
            with pytest.raises(mc.GraphError, match=rf"^state {stuck!r} has total exit rate .* at epsilon={eps!r}"):
                call()


def test_exponents_over_a_scale_too_large_for_a_float():
    primes = [p for p in range(2, 800) if all(p % q for q in range(2, p))]
    g = mc.chain_graph([(i, i + 1, Fraction(1, p)) for i, p in enumerate(primes)] + [(len(primes), 0, 1)])
    assert g.integer_weights[0] > 2**1024  # the lcm of the denominators
    tr = mc.simulate(g, 1.0, 0, 50.0, seed=1)
    assert tr.n_jumps > 3
    assert (tr.jumps, tr.absorbed, tr.truncated) == reference_walk(g, 1.0, 0, 50.0, 1)


def test_a_call_builds_tables_only_for_the_states_its_walks_enter(monkeypatch):
    # 4 and 5 cannot be reached from the cycle 1 -> 2 -> 3 -> 1
    g = mc.chain_graph([(1, 2, 1), (2, 3, 1), (3, 1, 1), (4, 5, 1), (5, 4, 1), (4, 1, 2)])
    built = []
    rate_table = mc.kmc._rate_table
    monkeypatch.setattr(mc.kmc, "_rate_table", lambda g, s, eps: built.append(s) or rate_table(g, s, eps))
    tr = mc.simulate(g, 1.0, 1, 5.0, seed=10)
    assert states_visited(tr) == [1, 2] and not tr.truncated  # one jump, then the horizon
    assert built == [1, 2]
    built.clear()
    trajs = mc.simulate_ensemble(g, 1.0, 1, 50.0, 4, seed=5)
    assert sorted(built) == [1, 2, 3]  # one build per entered state, shared by the ensemble
    assert all(not t.truncated and t.n_jumps > 3 for t in trajs)
    built.clear()
    mc.simulate_ensemble(g, 1.0, 1, 50.0, 4, seed=5)
    assert sorted(built) == [1, 2, 3]  # no table outlives its call


def test_ensemble_spawns_distinct_seeds():
    trajs = mc.simulate_ensemble(TWO, 0.5, 1, 50.0, 5, seed=9)
    assert len(trajs) == 5
    assert len({t.seed for t in trajs}) == 5
    again = mc.simulate_ensemble(TWO, 0.5, 1, 50.0, 5, seed=9)
    assert trajs == again
    with pytest.raises(mc.GraphError):
        mc.simulate_ensemble(TWO, 0.5, 1, 50.0, 0, seed=9)


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def assert_streams_are_default_rngs(seeds):
    derived = mc.kmc._pcg64_states(np.array(seeds, dtype=np.uint64))
    assert [mc.kmc._bit_generator_state(*pair) for pair in derived] == [
        np.random.default_rng(s).bit_generator.state for s in seeds
    ]


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_an_ensemble_derives_the_stream_default_rng_gives_a_seed(seed):
    assert_streams_are_default_rngs([seed])


@settings(max_examples=300)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_an_ensemble_derives_the_streams_default_rng_gives_any_seeds(seeds):
    assert_streams_are_default_rngs(seeds)


@pytest.mark.parametrize("n", [1, 1200])
def test_no_trajectory_inherits_state_from_the_one_before(n):
    # 3 absorbs; the cap of 8 events trips on some trajectories and not others
    g = mc.chain_graph([(1, 2, 1), (2, 1, 1), (2, 3, 3)], states=[1, 2, 3])
    trajs = mc.simulate_ensemble(g, 1.0, 1, 15.0, n, seed=21, max_events=8)
    assert len(trajs) == n
    for member in trajs:
        assert member == mc.simulate(g, 1.0, 1, 15.0, member.seed, max_events=8)
    if n > 1:
        ends = {(t.absorbed, t.truncated) for t in trajs}
        assert ends == {(True, False), (False, True), (False, False)}


def test_a_wrong_stream_derivation_is_refused(monkeypatch):
    derive = mc.kmc._pcg64_states
    monkeypatch.setattr(mc.kmc, "_pcg64_states", lambda seeds: [(s ^ 1, inc) for s, inc in derive(seeds)])
    mc.kmc._check_stream_derivation.cache_clear()
    try:
        with pytest.raises(mc.InternalInvariantError, match="derived for seed 0 is not the one numpy"):
            mc.simulate_ensemble(TWO, 0.5, 1, 50.0, 3, seed=9)
    finally:
        mc.kmc._check_stream_derivation.cache_clear()


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


def test_coverage_counts_each_trajectory_by_hand():
    g = mc.nested_cycle_chain_integer()
    tg = mc.run_algorithm2(g).tgraphs[2]
    trajs = mc.simulate_ensemble(g, 0.3, 1, 22000.0, 40, seed=5)
    lo, hi = window = (1100.0, 19800.0)
    rep = mc.census_vs_tgraph(trajs, tg, window)
    assert rep.census == mc.census(trajs, window)
    pairs = tg.pairs()
    per = [[a.pair() in pairs for t, a in tr.jumps if lo < t <= hi] for tr in trajs]
    assert rep.census.per_trajectory == tuple(map(len, per))
    assert rep.on_count == sum(map(sum, per)) and rep.off_count > 0
    total = sum(map(len, per))
    resid = sum((sum(on) - rep.coverage * len(on)) ** 2 for on in per)
    assert rep.stderr == float(np.sqrt(resid)) / total


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
    h1 = holding_times(tr)[1]
    assert len(h1) == 200
    res = exponential_ks(h1, math.exp(-2.0))
    assert res.passed and res.critical_value == KS_CRITICAL_1PCT
    assert res.statistic == pytest.approx(0.70759, abs=1e-4)


def test_ks_statistic_separates_rates():
    rng = np.random.default_rng(5)
    xs = rng.exponential(2.0, 800)
    res = exponential_ks(xs, 0.5)
    assert res.passed is True and type(res.statistic) is float
    res = exponential_ks(xs, 5.0)
    assert res.passed is False and type(res.statistic) is float
    with pytest.raises(mc.GraphError):
        exponential_ks([], 1.0)


@pytest.mark.parametrize("rate", [-1.0, 0, 0.0, math.nan, math.inf, 10**400, True, "1", None])
def test_ks_refuses_a_rate_it_cannot_test(rate):
    with pytest.raises(mc.GraphError, match="rate"):
        exponential_ks([1.0, 2.0, 0.5], rate)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
def test_ks_refuses_a_sample_it_cannot_test(bad):
    with pytest.raises(mc.GraphError, match="samples"):
        exponential_ks([1.0, bad, 0.5], 1.0)


def test_ks_takes_any_real_rate():
    xs = [0.25, 1.0, 2.0, 0.5, 0.0]
    assert exponential_ks(xs, Fraction(1, 2)) == exponential_ks(xs, 0.5)
    assert exponential_ks(xs, 1) == exponential_ks(xs, np.float64(1.0)) == exponential_ks(xs, 1.0)


def reference_walk(g, epsilon, x0, horizon, seed, max_events=10**6):
    """The event loop as first written: one numpy search per event, the
    clamp to the last arc and the cap checked on ``len(jumps)``."""
    rng = np.random.default_rng(seed)
    arcs_of = {s: g.out_arcs(s) for s in g.states}
    cum_of = {s: np.cumsum([arc_rate(a, epsilon) for a in arcs]) for s, arcs in arcs_of.items() if arcs}
    t, state, jumps = 0.0, x0, []
    absorbed = truncated = False
    while True:
        arcs = arcs_of[state]
        if not arcs:
            absorbed = True
            break
        total = float(cum_of[state][-1])
        t_next = t + rng.exponential(1.0 / total)
        if t_next > horizon:
            break
        j = int(np.searchsorted(cum_of[state], rng.random() * total, side="right"))
        arc = arcs[min(j, len(arcs) - 1)]
        jumps.append((t_next, arc))
        t, state = t_next, arc.head
        if len(jumps) >= max_events:
            truncated = True
            break
    return tuple(jumps), absorbed, truncated


@settings(max_examples=300)
@given(
    st.lists(st.tuples(st.integers(1, 600), st.floats(0.01, 100.0)), min_size=1, max_size=12),
    st.sampled_from([0.5, 1.0, 3.0, 7.5]),
)
def test_rate_tables_add_as_numpy_cumsum(arcs, eps):
    # exponents 1/10 .. 60: at epsilon 0.5 one state's rates can span 52 decades
    g = mc.chain_graph([(0, h, Fraction(u, 10), k) for h, (u, k) in enumerate(arcs, start=1)])
    _padded, cum, total, _mean = _rate_tables(g, eps)[0]
    assert cum == np.cumsum([arc_rate(a, eps) for a in g.out_arcs(0)]).tolist()
    assert total == cum[-1]


class ScriptedStream:
    """Stands in for numpy's generator with a short repeating script of
    dyadic draws, so a uniform often lands exactly on the boundary between
    two arcs of equal rate; the sampler must then take the later arc."""

    def __init__(self, seed):
        r = random.Random(seed)
        self.units = itertools.cycle([r.randrange(1, 9) / 4 for _ in range(16)])
        self.uniforms = itertools.cycle([r.randrange(8) / 8 for _ in range(16)])

    def exponential(self, scale):
        return scale * next(self.units)

    def random(self):
        return next(self.uniforms)


LABELS = {
    "int": lambda i: i,
    "str": lambda i: f"s{i}",
    "mixed": lambda i: (i + 1) // 2 if i % 2 else str(i // 2),  # 1, "1", 2, "2", ...
}


@st.composite
def sampled_chains(draw):
    """2-8-state chains whose states are ints, strings or both (1 and "1"),
    some with prefactors and some with absorbing states; with a start
    state, an epsilon, a horizon that may cut the walk and an event cap."""
    n = draw(st.integers(2, 8))
    label = LABELS[draw(st.sampled_from(sorted(LABELS)))]
    states = [label(i) for i in range(1, n + 1)]
    pairs = [(a, b) for a in states for b in states if a != b]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3 * n, unique=True))
    weights = st.sampled_from(["1/2", "1", "1", "3/2", "2"])
    arcs = [(t, h, draw(weights)) for t, h in chosen]
    if draw(st.booleans()):  # prefactors are all-or-none
        arcs = [arc + (draw(st.sampled_from([0.5, 1, 2, 3.25])),) for arc in arcs]
    g = mc.chain_graph(arcs, states=states)
    return (
        g,
        draw(st.sampled_from([0.5, 1.0, 2.0])),
        draw(st.sampled_from(states)),
        draw(st.sampled_from([0.5, 5.0, 1e300])),
        draw(st.sampled_from([1, 2, 7, 40, 500])),
    )


def _same_as_reference(g, eps, x0, horizon, cap, seed):
    tr = mc.simulate(g, eps, x0, horizon, seed, max_events=cap)
    assert (tr.jumps, tr.absorbed, tr.truncated) == reference_walk(g, eps, x0, horizon, seed, cap)
    return tr


@settings(max_examples=300)
@given(sampled_chains(), st.integers(0, 2**64 - 1))
def test_simulate_matches_the_reference_walk(case, seed):
    g, eps, x0, horizon, cap = case
    tr = _same_as_reference(g, eps, x0, horizon, cap, seed)
    assert tr.n_jumps <= cap
    for member in mc.simulate_ensemble(g, eps, x0, horizon, 3, seed, max_events=cap):
        assert member == mc.simulate(g, eps, x0, horizon, member.seed, max_events=cap)


@settings(max_examples=200)
@given(sampled_chains(), st.integers(0, 2**32))
def test_simulate_matches_the_reference_walk_on_dyadic_draws(case, seed):
    g, eps, x0, horizon, cap = case
    with mock.patch.object(np.random, "default_rng", ScriptedStream):
        _same_as_reference(g, eps, x0, horizon, cap, seed)


def test_a_draw_that_reaches_the_total_takes_the_last_arc():
    # u * total == total finds no cumulative rate above it
    g = mc.chain_graph([(1, 2, 1), (1, 3, 1)], states=[1, 2, 3])
    stream = mock.Mock(exponential=lambda scale: scale, random=lambda: 1.0)
    with mock.patch.object(np.random, "default_rng", lambda seed: stream):
        tr = mc.simulate(g, 1.0, 1, 10.0, 0)
        assert (tr.jumps, tr.absorbed, tr.truncated) == reference_walk(g, 1.0, 1, 10.0, 0)
    assert [arc.pair() for _t, arc in tr.jumps] == [(1, 3)] and tr.absorbed


def test_a_uniform_on_a_boundary_takes_the_later_arc():
    # two arcs of rate r: cumulative rates r and 2r, and u = 0.5 * 2r = r
    g = mc.chain_graph([(1, 2, 1), (1, 3, 1)], states=[1, 2, 3])
    stream = mock.Mock(exponential=lambda scale: scale, random=lambda: 0.5)
    with mock.patch.object(np.random, "default_rng", lambda seed: stream):
        tr = mc.simulate(g, 1.0, 1, 10.0, 0)
    assert [arc.pair() for _t, arc in tr.jumps] == [(1, 3)] and tr.absorbed
