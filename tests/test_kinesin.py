"""Two-ring motor model: construction, switch sweep, exact regimes."""

import dataclasses
import math
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import metachain as mc
from conftest import arcs_by_pair
from metachain import kinesin
from metachain.chain import InternalInvariantError
from metachain.kinesin import _regime, _Regime, _ring_arcs, kinesin_stop, parse_grid

F = Fraction

RING = ((1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3), (4, 1), (1, 4))


def default_grid():
    return [F(1, 4) + F(k, 2) for k in range(21)]


def test_params_coerce_to_rationals():
    p = mc.KinesinParams(zeta="7/2", psi="1.5")
    assert p.zeta == F(7, 2) and p.psi == F(3, 2)
    assert p.f23 == F(15, 2)
    q = dataclasses.replace(p, zeta=4)
    assert q.zeta == F(4) and q.psi == F(3, 2)


def test_graph_shape():
    g = mc.build_kinesin(mc.KinesinParams(zeta=7))
    assert g.n == 8
    assert len(g.arcs) == 24  # 8 per ring plus 8 switch arcs
    assert set(g.states) == {f"{i}{s}" for i in (1, 2, 3, 4) for s in "+-"}
    arcs = arcs_by_pair(g)
    for i in (1, 2, 3, 4):
        assert arcs[(f"{i}+", f"{i}-")].weight == F(7)
        assert arcs[(f"{i}-", f"{i}+")].weight == F(7)


def test_spot_exponents():
    arcs = arcs_by_pair(mc.build_kinesin(mc.KinesinParams(zeta=7)))
    assert arcs[("3+", "2+")].weight == F(1, 2)
    assert arcs[("4+", "3+")].weight == F(10)
    assert arcs[("1-", "4-")].weight == F(1, 2)
    assert arcs[("2+", "3+")].weight == F(19, 2)


def test_rings_differ_only_by_the_tilt():
    p = mc.KinesinParams(zeta=3)
    g = mc.build_kinesin(p)
    tilted = {(2, 3): 1, (1, 4): 1, (3, 2): -1, (4, 1): -1}
    arcs = arcs_by_pair(g)
    for i, j in RING:
        plus = arcs[(f"{i}+", f"{j}+")].weight
        minus = arcs[(f"{i}-", f"{j}-")].weight
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


def test_bracket_only_mode_is_refused():
    with pytest.raises(ValueError, match="was removed"):
        mc.kinesin_sweep(default_grid(), None, False)


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


def direct(zeta, params) -> tuple:
    """Signature and final theta of one run of the sweep at ``zeta``."""
    rep = mc.run_algorithm2(mc.build_kinesin(dataclasses.replace(params, zeta=zeta)), stop=kinesin_stop())
    return tuple(frozenset(a.pair() for a in step) for step in rep.transfers_by_step), rep.theta[-1]


PARAMS = (
    mc.KinesinParams(zeta=1),
    mc.KinesinParams(zeta=1, psi=1),
    mc.KinesinParams(zeta=1, psi=F(3, 2)),
)
STEPS = tuple(F(x) for x in ("1/8", "1/6", "1/4", "1/3", "3/8", "1/2", "2/3", "3/4", "1"))
EPS = F(1, 10**6)


@pytest.fixture(scope="module")
def runs():
    """Direct runs, cached per (parameter set, zeta) across examples."""
    cache: dict = {}

    def run(k, zeta):
        if (k, zeta) not in cache:
            cache[k, zeta] = direct(zeta, PARAMS[k])
        return cache[k, zeta]

    return run


@settings(max_examples=10)
@given(
    k=st.integers(0, len(PARAMS) - 1),
    start=st.integers(1, 96).map(lambda i: F(i, 8)),
    step=st.sampled_from(STEPS),
    points=st.integers(3, 15),
)
def test_sweep_agrees_with_direct_runs(runs, k, start, step, points):
    grid = [start + i * step for i in range(points)]
    res = mc.kinesin_sweep(grid, PARAMS[k])
    for iv in res.intervals:
        for z, theta in iv.theta_by_zeta:
            assert (iv.signature, theta) == runs(k, z), z
    assert [z for iv in res.intervals for z in iv.zetas] == grid
    for b in res.boundaries:
        x = b.refined
        assert b.exact and grid[0] <= x <= grid[-1]
        assert runs(k, x)[0] not in (runs(k, x - EPS)[0], runs(k, x + EPS)[0]), x
    # a scan of the span at every rational of denominator <= 24: a point
    # whose signature differs from its scan neighbours' and from 10^-6 to
    # either side is degenerate and must be a boundary
    scan = sorted({F(n, d) for d in range(1, 25)
                   for n in range(math.ceil(grid[0] * d), math.floor(grid[-1] * d) + 1)})
    sig = [runs(k, z)[0] for z in scan]
    for i, x in enumerate(scan):
        if sig[i] in sig[max(i - 1, 0):i] + sig[i + 1:i + 2]:
            continue
        if sig[i] not in (runs(k, x - EPS)[0], runs(k, x + EPS)[0]):
            assert x in res.critical_values, x


def test_grid_points_on_breakpoints_are_reported_once():
    res = mc.kinesin_sweep(parse_grid("4:6:1/2"))
    assert res.critical_values == (F(9, 2), F(5), F(11, 2), F(6))
    assert [(b.lo, b.hi) for b in res.boundaries] == [
        (F(4), F(5)), (F(9, 2), F(11, 2)), (F(5), F(6)), (F(11, 2), F(6))
    ]
    spans = [(iv.lo, iv.hi, iv.zetas) for iv in res.intervals]
    assert spans == [
        (F(4), F(9, 2), (F(4),)),
        (F(9, 2), F(9, 2), (F(9, 2),)),
        (F(5), F(5), (F(5),)),
        (F(11, 2), F(11, 2), (F(11, 2),)),
        (F(6), F(6), (F(6),)),
    ]


def test_bracket_spanning_two_breakpoints_reports_both():
    res = mc.kinesin_sweep([F(17, 4), F(21, 4)])
    assert res.critical_values == (F(9, 2), F(5))
    assert all((b.lo, b.hi, b.exact) == (F(17, 4), F(21, 4), True) for b in res.boundaries)
    assert [(iv.lo, iv.hi) for iv in res.intervals] == [(F(17, 4), F(9, 2)), (F(5), F(21, 4))]


def test_grid_starting_on_a_breakpoint():
    res = mc.kinesin_sweep([F(1, 2), F(1), F(3, 2)])
    assert res.critical_values == (F(1, 2),)
    assert (res.boundaries[0].lo, res.boundaries[0].hi) == (F(1, 2), F(1))
    assert [(iv.lo, iv.hi, len(iv.zetas)) for iv in res.intervals] == [
        (F(1, 2), F(1, 2), 1), (F(1, 2), F(3, 2), 2)
    ]


# at zeta = 12 two weights of different slopes tie, yet the run releases the
# same arcs in the same order as on either side of it
TIE_PARAMS = mc.KinesinParams(
    zeta=1, psi=1, f1=0, f2=1, f3=10, f4=5, f12=6, f21=5,
    f34=15, f43=13, f23=15, f32=15, f41=11, f14=11,
)


def test_tie_that_keeps_the_signature_is_no_boundary():
    p = TIE_PARAMS
    assert _regime(F(12), _ring_arcs(p)).is_point
    grid = [F(23, 2), F(12), F(25, 2)]
    res = mc.kinesin_sweep(grid, p)
    assert res.boundaries == ()
    [iv] = res.intervals
    assert iv.zetas == tuple(grid)
    for z, theta in iv.theta_by_zeta:
        assert (iv.signature, theta) == direct(z, p)


def every_end_regimes(grid, rings):
    """The regime walk that runs at every end of an open regime, whether or
    not the point regime there can change the sweep."""
    found = []

    def at(z):
        r = next((r for r in found if r.holds(z)), None)
        if r is None:
            r = kinesin._regime(z, rings)
            found.append(r)
        return r

    out = [at(grid[0])]
    while True:
        r = out[-1]
        if not r.is_point:
            if r.hi is None or r.hi > grid[-1]:
                return out
            out.append(at(r.hi))
            continue
        x = r.zeta
        if x >= grid[-1]:
            return out
        nxt = at(next(z for z in grid if z > x))
        while nxt.lo != x:
            nxt = at((x + nxt.lo) / 2)
        out.append(nxt)


@settings(max_examples=40)
@given(
    k=st.integers(0, len(PARAMS) - 1),
    start=st.integers(1, 44).map(lambda i: F(i, 4)),
    step=st.sampled_from(STEPS),
    points=st.integers(1, 12),
)
@example(k=0, start=F(4), step=F(1, 2), points=5)  # every grid point a breakpoint
@example(k=0, start=F(17, 4), step=F(1), points=2)  # two breakpoints in one gap
def test_walk_matches_one_that_runs_every_regime_end(k, start, step, points):
    grid = [start + i * step for i in range(points)]
    res = mc.kinesin_sweep(grid, PARAMS[k])
    with patch.object(kinesin, "_regimes", every_end_regimes):
        ref = mc.kinesin_sweep(grid, PARAMS[k])
    assert res.to_json_dict() == ref.to_json_dict()


def test_ci_grid_skips_the_point_runs_that_cannot_matter():
    runs = []

    def counted(z, rings):
        runs.append(z)
        return _regime(z, rings)

    with patch.object(kinesin, "_regime", counted):
        res = mc.kinesin_sweep(parse_grid("1/4:41/4:1"))
        assert len(runs) == 8  # one per open regime: no breakpoint is on this grid
        runs.clear()
        with patch.object(kinesin, "_regimes", every_end_regimes):
            assert mc.kinesin_sweep(parse_grid("1/4:41/4:1")) == res
    assert len(runs) == 15  # also one at each of the 7 breakpoints


@pytest.mark.parametrize(
    "first, x",
    [
        (_Regime(None, F(3, 2), F(1), (), (F(1), 0)), F(3, 2)),  # open, ends off the grid
        (_Regime(F(1), F(1), F(1), (), (F(1), 0)), F(1)),  # a point
    ],
)
@pytest.mark.parametrize("lo", [None, F(1, 2)])
def test_regime_walk_refuses_a_right_neighbour_that_starts_elsewhere(first, x, lo):
    # the run at 2 claims a regime unbounded below or starting left of x: the
    # walk must stop with an invariant error, not a TypeError or an endless loop
    regimes = {F(1): first, F(2): _Regime(lo, None, F(2), ((),), (F(1), 0))}
    with patch.object(kinesin, "_regime", lambda z, _rings: regimes[z]):
        with pytest.raises(InternalInvariantError, match=f"right of zeta = {x} starts at {lo},"):
            mc.kinesin_sweep([F(1), F(2)])


def counting_runs(runs):
    def run(z, rings):
        runs.append(z)
        return _regime(z, rings)

    return run


def test_walk_runs_at_a_point_between_equal_signatures():
    runs = []
    with patch.object(kinesin, "_regime", counting_runs(runs)):
        res = mc.kinesin_sweep([F(23, 2), F(25, 2)], TIE_PARAMS)
    assert F(12) in runs and res.boundaries == ()


def stub_regimes(point_signature):
    """Open regimes (0, 3/2) and (3/2, 3) of signature ("a",) around the
    point 3/2, whose signature is given; a run anywhere else is an error."""
    regimes = {
        F(1): _Regime(F(0), F(3, 2), F(1), ("a",), (F(1), 0)),
        F(2): _Regime(F(3, 2), F(3), F(2), ("a",), (F(1), 0)),
        F(3, 2): _Regime(F(3, 2), F(3, 2), F(3, 2), point_signature, (F(1), 0)),
    }
    return lambda z, _rings: regimes[z]


@pytest.mark.parametrize(
    "point, changes, spans",
    [
        (("a",), (), [(F(1), F(2))]),
        (("b",), (F(3, 2),), [(F(1), F(3, 2)), (F(3, 2), F(2))]),
    ],
)
def test_point_between_equal_signatures_decides_the_boundary(point, changes, spans):
    with patch.object(kinesin, "_regime", stub_regimes(point)):
        res = mc.kinesin_sweep([F(1), F(2)])
    assert res.critical_values == changes
    assert [(iv.lo, iv.hi) for iv in res.intervals] == spans
