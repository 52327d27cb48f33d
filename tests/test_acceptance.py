"""Acceptance gate: one test per published criterion, at stated tolerance.

Every test measures its own wall time against the criterion's budget and
finishes with a single printed pass line carrying the observed numbers, so
a ``pytest -v -s`` run reads as a checklist.
"""

import math
import random
import time
from fractions import Fraction

import conftest
import metachain as mc
from metachain.chain import closed_communicating_classes
from metachain.contraction import updated_weight
from metachain.demos import tied_min_arc_chain, two_state_chain

F = Fraction

SCHEDULE = conftest.SPECTRAL_SCHEDULE


def _update_rule_identities():
    assert updated_weight(14, "1.1", 3) == F(159, 10)
    assert updated_weight(2, 1, 3) == F(4)
    assert updated_weight("1.5", 1, 3) == F(7, 2)
    assert updated_weight("3.4", "3.1", "3.5") == F(19, 5)


def test_criterion_01_update_rule_identities():
    _update_rule_identities()  # warm-up: the first call pays for cold caches
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _update_rule_identities()
        times.append(time.perf_counter() - t0)
    dt = min(times)
    assert dt < 0.001
    print(f"\nPASS 1: update-rule identities exact in {dt * 1e6:.0f} us")


def test_criterion_02_enumeration_oracle_equivalence(oracle_corpus, oracle_extractions):
    t0 = time.perf_counter()
    checked = 0
    for (g, rep), (_g2, _r2, by_m) in zip(oracle_corpus, oracle_extractions):
        per_m = mc.enumerate_all_optimal(g)
        for m in range(1, g.n):
            optima, unique = per_m[m]
            assert unique, f"optimum with {m} sinks is not unique"
            assert by_m[m] == optima[0]
            gap = optima[0].total_weight - per_m[m + 1][0][0].total_weight
            assert gap == rep.delta[m - 1]
            checked += 1
    dt = time.perf_counter() - t0
    assert len(oracle_corpus) == 200
    assert dt < 60.0
    print(f"\nPASS 2: sweep == enumeration on 200 graphs ({checked} sink counts) in {dt:.2f} s")


def test_criterion_03_spectral_sharpness(spectral_corpus):
    t0 = time.perf_counter()
    worst_defect = 0.0
    ratios = []
    for g, rep in spectral_corpus:
        rows = mc.compare_spectrum(g, rep, SCHEDULE)
        for m in range(g.n - 1):
            d = [row.defect[m] for row in rows]
            assert d[0] > d[1] > d[2], f"defect not decreasing: {d}"
            assert d[2] < 0.02, f"final defect {d[2]} out of tolerance"
            assert 0.8 <= rows[2].ratio[m] <= 1.25
            worst_defect = max(worst_defect, d[2])
            ratios.append(rows[2].ratio[m])
    dt = time.perf_counter() - t0
    assert len(spectral_corpus) == 20
    assert dt < 30.0
    print(
        f"\nPASS 3: 20 prefactor fixtures, worst final defect {worst_defect:.4f}, "
        f"ratio range [{min(ratios):.3f}, {max(ratios):.3f}] in {dt:.2f} s"
    )


def test_criterion_04_charpoly_identity():
    rng = random.Random(551234)
    graphs = []
    for _ in range(25):
        n = rng.choice((3, 4, 5))
        extra = rng.randint(2, n + 2)
        graphs.append(
            conftest.random_strongly_connected(rng, n, extra, conftest.FIFTH_GRID[:14])
        )
    for _ in range(25):
        graphs.append(conftest.reversible_prefactor_graph(rng, n=4))

    t0 = time.perf_counter()
    worst = 0.0
    worst_t0 = 0.0
    for g in graphs:
        for eps in (0.3, 1.0):
            rep = mc.charpoly_identity_check(g, eps)
            assert rep.max_rel_residual < 1e-9
            assert abs(rep.t0_coefficient) < 1e-12
            worst = max(worst, rep.max_rel_residual)
            worst_t0 = max(worst_t0, abs(rep.t0_coefficient))
    dt = time.perf_counter() - t0
    assert len(graphs) == 50
    assert dt < 10.0
    print(
        f"\nPASS 4: coefficient identity on 50 graphs, worst residual {worst:.2e}, "
        f"worst t0 {worst_t0:.2e} in {dt:.2f} s"
    )


def test_criterion_05_counting_identities(oracle_corpus, detailed_balance_corpus):
    for g, rep in oracle_corpus:
        assert rep.K - rep.n_cycles == g.n - 1
    for g in detailed_balance_corpus:
        rep = mc.run_algorithm1(g)
        assert rep.K - rep.n_cycles == g.n - 1
        assert rep.n_cycles == g.n - 1
        assert rep.K == 2 * g.n - 2
    assert len(detailed_balance_corpus) == 50
    print(
        "\nPASS 5: step-count identity on 250 runs; "
        "reversible fixtures hit the doubling exactly"
    )


def test_criterion_06_sweep_comparison(integer_corpus):
    t0 = time.perf_counter()
    for g in integer_corpus:
        cmp = mc.compare_alg1_alg2(g)
        assert cmp.ok, [s.detail for s in cmp.statements if not s.ok]
        assert [s.number for s in cmp.statements] == [1, 2, 3, 4]
    tied = tied_min_arc_chain()
    for tb in ("lex", "revlex"):
        r1 = mc.run_algorithm1(tied, tie_break=tb)
        cmp = mc.compare_alg1_alg2(tied, tie_break=tb, r1=r1)
        assert cmp.ok
        assert tuple(sorted(set(r1.gamma))) == cmp.alg2_theta == (F(1), F(2))
    dt = time.perf_counter() - t0
    assert len(integer_corpus) == 100
    assert dt < 30.0
    print(
        f"\nPASS 6: four comparison statements on 100 integer graphs plus the "
        f"tied chain under both tie-breaks in {dt:.2f} s"
    )


def test_criterion_07_golden_contraction_trace():
    rep = mc.run_algorithm2(mc.nested_cycle_chain_integer())
    assert rep.theta == (F(1), F(3), F(4))
    assert len(rep.classes) == 1
    rec = rep.classes[0]
    assert rec.member_states == frozenset({1, 2, 3})
    assert rec.step == 2
    assert rec.exit_weight == F(4)
    t3 = rep.tgraphs[3]
    cc = closed_communicating_classes(
        {s: [a.head for a in t3.arcs if a.tail == s] for s in rep.graph.states},
        vertices=rep.graph.states,
    )
    assert cc.nontrivial == (frozenset(range(1, 8)),)
    assert cc.absorbing == ()
    print(
        "\nPASS 7: golden trace exact: theta (1,3,4), class {1,2,3} at step 2 "
        "with exit weight 4, final graph one closed class on 7 states"
    )


def projected_forward_ring(arcs) -> bool:
    proj = {(int(t[0]), int(h[0])) for (t, h) in arcs if t[-1] == h[-1]}
    return {(1, 2), (2, 3), (3, 4), (4, 1)} <= proj


def test_criterion_08_kinesin_sweep():
    t0 = time.perf_counter()
    grid = [F(1, 4) + F(k, 2) for k in range(21)]
    res = mc.kinesin_sweep(grid)
    assert res.critical_values == (
        F(1, 2), F(9, 2), F(5), F(11, 2), F(6), F(19, 2), F(10)
    )
    assert all(b.exact for b in res.boundaries)

    by_span = {(iv.lo, iv.hi): iv for iv in res.intervals}
    assert by_span[(F(1, 2), F(9, 2))].exponent_fit == (F(21, 2), F(-1))
    assert by_span[(F(6), F(19, 2))].exponent_fit == (F(0), F(1))
    for span in ((F(9, 2), F(5)), (F(5), F(11, 2)), (F(11, 2), F(6))):
        assert all(t == F(6) for _z, t in by_span[span].theta_by_zeta)
    assert all(t == z for z, t in by_span[(F(19, 2), F(10))].theta_by_zeta)
    assert all(t == F(10) for _z, t in by_span[(F(10), F(41, 4))].theta_by_zeta)
    assert all(t == F(10) for _z, t in by_span[(F(1, 4), F(1, 2))].theta_by_zeta)

    for iv in res.intervals:
        if iv.lo >= F(1, 2) and iv.hi <= F(10):
            assert projected_forward_ring(iv.final_arcs), (iv.lo, iv.hi)
    dt = time.perf_counter() - t0
    assert dt < 20.0
    print(
        f"\nPASS 8: seven exact switch boundaries, fitted slowest exponents "
        f"21/2 - z / 6 / z / 10, forward ring inside (1/2, 10), in {dt:.2f} s"
    )


def test_criterion_09_kinetic_monte_carlo():
    t0 = time.perf_counter()
    two = two_state_chain()

    # long-run occupancy of the heavy state at eps = 0.2, 3 sigma
    trajs = mc.simulate_ensemble(two, 0.2, 2, 50_000.0, 200, seed=77)
    mean, se = conftest.mean_occupancy(trajs, 2)
    pi2 = 1 / (1 + math.exp(-5))
    assert abs(mean - pi2) <= 3 * se

    # mean first holding time from state 1 at eps = 0.5, 3 sigma
    ens = mc.simulate_ensemble(two, 0.5, 1, 100.0, 10_000, seed=79)
    firsts = [tr.jumps[0][0] for tr in ens if tr.jumps]
    assert len(firsts) == len(ens)  # horizon long enough for every walker
    fmean = sum(firsts) / len(firsts)
    fse = math.sqrt(
        sum((x - fmean) ** 2 for x in firsts) / (len(firsts) - 1) / len(firsts)
    )
    assert abs(fmean - math.exp(2)) <= 3 * fse

    # transition coverage against the second transition graph
    g = mc.nested_cycle_chain_integer()
    t2 = mc.run_algorithm2(g).tgraphs[2]
    coverages = []
    jump_counts = []
    for i, eps in enumerate((0.3, 0.2, 0.15, 0.1)):
        horizon = math.exp(3 / eps)
        ens = mc.simulate_ensemble(g, eps, 1, horizon, 2500, seed=4000 + i)
        rep = mc.census_vs_tgraph(ens, t2, (0.0, horizon))
        coverages.append(rep.coverage)
        jump_counts.append(rep.census.total_jumps)
    assert coverages[2] >= 0.90  # eps = 0.15
    assert all(a < b for a, b in zip(coverages, coverages[1:]))

    # below the smallest exponent's timescale almost nothing moves
    early = mc.simulate_ensemble(g, 0.1, 1, math.exp(5.0), 500, seed=991)
    early_jumps = sum(tr.n_jumps for tr in early)
    assert early_jumps <= 0.05 * len(early)

    dt = time.perf_counter() - t0
    assert dt < 120.0
    cov_txt = ", ".join(f"{c:.4f}" for c in coverages)
    print(
        f"\nPASS 9: occupancy and first-holding within 3 sigma; coverage "
        f"[{cov_txt}] nondecreasing with {min(jump_counts)}+ jumps per point, "
        f"in {dt:.1f} s"
    )


def test_criterion_10_weak_nesting(oracle_extractions):
    pairs = 0
    for _g, rep, by_m in oracle_extractions:
        n = rep.n
        for m in range(1, n - 1):
            problems = conftest.weak_nested_violations(by_m[m], by_m[m + 1])
            assert problems == [], (m, problems)
            pairs += 1
    print(f"\nPASS 10: weak nesting holds for all {pairs} consecutive optimum pairs")
