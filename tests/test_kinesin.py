"""Two-ring motor model: construction, switch sweep, boundary refinement."""

from fractions import Fraction

import pytest

import metachain as mc
from metachain.kinesin import kinesin_stop, simplest_rational_between

F = Fraction

RING = ((1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3), (4, 1), (1, 4))


def default_grid():
    return [F(1, 4) + F(k, 2) for k in range(21)]


def test_params_coerce_to_rationals():
    p = mc.KinesinParams(zeta="7/2", psi="1.5")
    assert p.zeta == F(7, 2) and p.psi == F(3, 2)
    assert p.f23 == F(15, 2)
    q = p.with_zeta(4)
    assert q.zeta == F(4) and q.psi == F(3, 2)


def test_graph_shape():
    g = mc.build_kinesin(mc.KinesinParams(zeta=7))
    assert g.n == 8
    assert len(g.arcs) == 24  # 8 per ring plus 8 switch arcs
    assert set(g.states) == {f"{i}{s}" for i in (1, 2, 3, 4) for s in "+-"}
    for i in (1, 2, 3, 4):
        assert g.arc_map[(f"{i}+", f"{i}-")].weight == F(7)
        assert g.arc_map[(f"{i}-", f"{i}+")].weight == F(7)


def test_spot_exponents():
    g = mc.build_kinesin(mc.KinesinParams(zeta=7))
    assert g.arc_map[("3+", "2+")].weight == F(1, 2)
    assert g.arc_map[("4+", "3+")].weight == F(10)
    assert g.arc_map[("1-", "4-")].weight == F(1, 2)
    assert g.arc_map[("2+", "3+")].weight == F(19, 2)


def test_rings_differ_only_by_the_tilt():
    p = mc.KinesinParams(zeta=3)
    g = mc.build_kinesin(p)
    tilted = {(2, 3): 1, (1, 4): 1, (3, 2): -1, (4, 1): -1}
    for i, j in RING:
        plus = g.arc_map[(f"{i}+", f"{j}+")].weight
        minus = g.arc_map[(f"{i}-", f"{j}-")].weight
        assert minus == plus - 2 * p.psi * tilted.get((i, j), 0)
        assert plus > 0 and minus > 0


def test_construction_guard_rails():
    with pytest.raises(mc.GraphError):
        mc.build_kinesin(mc.KinesinParams(zeta=0))
    with pytest.raises(mc.GraphError):  # tilt swamps the 3->2 barrier
        mc.build_kinesin(mc.KinesinParams(zeta=1, psi=3))


def test_two_target_stop_run():
    g = mc.build_kinesin(mc.KinesinParams(zeta=7))
    rep = mc.run_algorithm2(g, stop=kinesin_stop())
    assert rep.stop_reason == "class-covering"
    assert rep.theta == (F(1, 2), F(9, 2), F(11, 2), F(6), F(7))
    assert rep.covering_class == frozenset({"1+", "2+", "2-", "3-", "4+", "4-"})
    assert rep.transient_states == ("1-", "3+")


def test_simplest_rational_between():
    srb = simplest_rational_between
    assert srb(F(1, 3), F(1, 2)) == F(2, 5)
    assert srb(F(1, 2), F(3, 4)) == F(2, 3)
    assert srb(F(2), F(3)) == F(5, 2)
    assert srb(F(-2), F(-1)) == F(-3, 2)
    assert srb(F(-1, 2), F(1, 3)) == F(0)
    with pytest.raises(ValueError):
        srb(F(1, 2), F(1, 2))


def test_simplest_rational_is_interior():
    vals = [(F(3, 7), F(4, 7)), (F(99, 100), F(100, 99)), (F(5, 3), F(12, 7))]
    for lo, hi in vals:
        mid = simplest_rational_between(lo, hi)
        assert lo < mid < hi


@pytest.fixture(scope="module")
def sweep():
    return mc.kinesin_sweep(default_grid())


def test_sweep_critical_values(sweep):
    assert sweep.critical_values == (
        F(1, 2), F(9, 2), F(5), F(11, 2), F(6), F(19, 2), F(10)
    )
    assert all(b.exact for b in sweep.boundaries)
    for b in sweep.boundaries:
        assert b.lo < b.refined < b.hi or b.lo <= b.refined <= b.hi


def test_sweep_interval_layout(sweep):
    spans = [(iv.lo, iv.hi, len(iv.zetas)) for iv in sweep.intervals]
    assert spans == [
        (F(1, 4), F(1, 2), 1),
        (F(1, 2), F(9, 2), 8),
        (F(9, 2), F(5), 1),
        (F(5), F(11, 2), 1),
        (F(11, 2), F(6), 1),
        (F(6), F(19, 2), 7),
        (F(19, 2), F(10), 1),
        (F(10), F(41, 4), 1),
    ]


def test_sweep_exponent_fits(sweep):
    fits = [iv.exponent_fit for iv in sweep.intervals]
    assert fits[1] == (F(21, 2), F(-1))  # slowest exponent falls with zeta
    assert fits[5] == (F(0), F(1))  # then the switch itself is slowest
    assert all(f is None for i, f in enumerate(fits) if i not in (1, 5))
    assert sweep.intervals[0].theta_by_zeta == ((F(1, 4), F(10)),)
    assert sweep.intervals[2].theta_by_zeta == ((F(19, 4), F(6)),)
    assert sweep.intervals[7].theta_by_zeta == ((F(41, 4), F(10)),)


def projected_forward_ring(arcs) -> bool:
    proj = {
        (int(t[0]), int(h[0]))
        for (t, h) in arcs
        if t[-1] == h[-1]  # same-ring arcs only
    }
    return {(1, 2), (2, 3), (3, 4), (4, 1)} <= proj


def test_forward_ring_inside_the_working_window(sweep):
    for iv in sweep.intervals:
        if iv.lo >= F(1, 2) and iv.hi <= F(10):
            assert projected_forward_ring(iv.final_arcs), (iv.lo, iv.hi)


def test_sweep_without_bisection():
    res = mc.kinesin_sweep(default_grid(), bisect=False)
    assert res.critical_values == ()
    assert all(b.refined is None and not b.exact for b in res.boundaries)
    assert len(res.boundaries) == 7
    # brackets still come from neighboring grid points
    assert (res.boundaries[0].lo, res.boundaries[0].hi) == (F(1, 4), F(3, 4))


def test_sweep_grid_validation():
    with pytest.raises(mc.GraphError):
        mc.kinesin_sweep([])
    with pytest.raises(mc.GraphError):
        mc.kinesin_sweep([F(1), F(1, 2)])
    with pytest.raises(mc.GraphError):
        mc.kinesin_sweep([F(-1), F(1)])


def test_sweep_json_shape(sweep):
    doc = sweep.to_json_dict()
    assert doc["kind"] == "kinesin-sweep"
    assert doc["critical_values"] == ["1/2", "9/2", "5", "11/2", "6", "19/2", "10"]
    iv = doc["intervals"][1]
    assert iv["exponent_fit"] == {"intercept": "21/2", "slope": "-1"}
    assert iv["hierarchy"][-1] == iv["arcs"]
