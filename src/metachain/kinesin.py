"""Built-in two-ring motor-protein model and its switch-exponent sweep.

The model has two rings of four mechanical states (labels ``1+..4+`` and
``1-..4-``).  Within a ring, barrier heights relative to the tail's well
depth set the arc exponents, with a tilt ``psi`` applied to the two
chemical bonds (2-3 and 4-1): positive tilt on the plus ring, negative on
the minus ring.  Corresponding states of the two rings are linked by
switch arcs whose exponent is the sweep parameter ``zeta``.

The sweep runs the tie-tolerant contraction with a two-target stop (a
class containing one of {1+,1-} and one of {3+,3-}) and describes a run by
its signature: the labeled arc set of each release step, in order.  The
release order matters: two zeta ranges can end with the same arc set yet
build it through different contraction hierarchies, and those count as
different behaviors.

Every exponent is a constant or zeta, so every weight the contraction
compares is affine in zeta.  After one run at zeta0, a replay of its steps
with (value, slope) weights turns each comparison the run made into a
condition on zeta, and their intersection is the exact regime of that
run: an open interval around zeta0 on which every comparison, so the
signature and the slope of every threshold, stays the same, or zeta0
alone where weights of different slopes tie there (Gusfield 1980,
*Sensitivity analysis for combinatorial optimization*).  Open regimes and
single points alternate along the axis, so the sweep walks the grid span
one regime at a time and reports a boundary exactly where the signature
changes.  It runs once per open regime, and at a single point only where
that point is a grid value or the open regimes on its two sides share a
signature: elsewhere the point is a boundary whatever its own signature.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence

from .alg2 import _sweep
from .chain import Arc, ChainGraph, GraphError, InternalInvariantError, parse_rational, validate
from .graphio import format_rational
from .stopping import StopCriterion

__all__ = [
    "KinesinParams",
    "build_kinesin",
    "kinesin_stop",
    "SweepInterval",
    "SweepBoundary",
    "SweepResult",
    "kinesin_sweep",
    "parse_grid",
]


@dataclass(frozen=True)
class KinesinParams:
    """Exact model parameters; every energy is a rational.

    ``f1..f4`` are well depths, ``fij`` the barrier seen when jumping from
    well i to well j, ``psi`` the chemical tilt, ``zeta`` the switch
    exponent.  Defaults reproduce the reference parameter set.
    """

    zeta: Fraction
    psi: Fraction = Fraction(2)
    f1: Fraction = Fraction(5)
    f2: Fraction = Fraction(0)
    f3: Fraction = Fraction(5)
    f4: Fraction = Fraction(0)
    f12: Fraction = Fraction(10)
    f21: Fraction = Fraction(10)
    f34: Fraction = Fraction(10)
    f43: Fraction = Fraction(10)
    f23: Fraction = Fraction(15, 2)
    f32: Fraction = Fraction(15, 2)
    f41: Fraction = Fraction(15, 2)
    f14: Fraction = Fraction(15, 2)

    def __post_init__(self):
        for name in (
            "zeta", "psi", "f1", "f2", "f3", "f4",
            "f12", "f21", "f34", "f43", "f23", "f32", "f41", "f14",
        ):
            object.__setattr__(self, name, parse_rational(getattr(self, name)))


def _ring_exponents(p: KinesinParams, psi: Fraction) -> dict:
    return {
        (1, 2): p.f12 - p.f1,
        (2, 1): p.f21 - p.f2,
        (2, 3): p.f23 - p.f2 + psi,
        (3, 2): p.f32 - p.f3 - psi,
        (3, 4): p.f34 - p.f3,
        (4, 3): p.f43 - p.f4,
        (4, 1): p.f41 - p.f4 - psi,
        (1, 4): p.f14 - p.f1 + psi,
    }


_STATES = tuple(f"{i}{sign}" for sign in ("+", "-") for i in (1, 2, 3, 4))


def _ring_arcs(p: KinesinParams) -> tuple:
    """The arcs inside both rings; they do not depend on zeta."""
    arcs = []
    for sign, psi in (("+", p.psi), ("-", -p.psi)):
        for (i, j), u in _ring_exponents(p, psi).items():
            if u <= 0:
                raise GraphError(
                    f"arc {i}{sign}->{j}{sign} has exponent {u} <= 0; barriers "
                    "must exceed adjacent well depths after the tilt"
                )
            arcs.append(Arc(f"{i}{sign}", f"{j}{sign}", u))
    return tuple(arcs)


def _switch_arcs(zeta: Fraction) -> tuple:
    """The arcs between corresponding states of the two rings."""
    if zeta <= 0:
        raise GraphError(f"switch exponent must be positive, got {zeta}")
    return tuple(
        Arc(f"{i}{a}", f"{i}{b}", zeta) for i in (1, 2, 3, 4) for a, b in (("+", "-"), ("-", "+"))
    )


def build_kinesin(p: KinesinParams) -> ChainGraph:
    """Eight-state chain graph of the two-ring model, no prefactors."""
    return ChainGraph(_STATES, _ring_arcs(p) + _switch_arcs(p.zeta))


def kinesin_stop() -> StopCriterion:
    """Stop once one closed class holds a 1-position and a 3-position state."""
    return StopCriterion.class_covering({"1+", "1-"}, {"3+", "3-"})


@dataclass(frozen=True)
class SweepInterval:
    lo: Fraction
    hi: Fraction
    zetas: tuple
    signature: tuple  # per release step, the frozenset of labeled arc pairs
    theta_by_zeta: tuple
    exponent_fit: Optional[tuple]

    @property
    def final_arcs(self) -> frozenset:
        return frozenset().union(*self.signature)

    def to_json_dict(self) -> dict:
        fit = None
        if self.exponent_fit is not None:
            a, b = self.exponent_fit
            fit = {"intercept": format_rational(a), "slope": format_rational(b)}
        return {
            "lo": format_rational(self.lo),
            "hi": format_rational(self.hi),
            "zetas": [format_rational(z) for z in self.zetas],
            "theta": [format_rational(t) for _z, t in self.theta_by_zeta],
            "exponent_fit": fit,
            "arcs": sorted(f"{t}->{h}" for (t, h) in self.final_arcs),
            "hierarchy": [
                sorted(f"{t}->{h}" for (t, h) in upto)
                for upto in accumulate(self.signature, frozenset.union)
            ],
        }


@dataclass(frozen=True)
class SweepBoundary:
    """The exact zeta ``refined`` where the signature changes, between the
    grid points ``lo`` and ``hi`` around it (equal to it where it is one)."""

    lo: Fraction
    hi: Fraction
    refined: Fraction
    exact = True

    def to_json_dict(self) -> dict:
        return {
            "bracket": [format_rational(self.lo), format_rational(self.hi)],
            "refined": format_rational(self.refined),
            "exact": self.exact,
        }


@dataclass(frozen=True)
class SweepResult:
    grid: tuple
    intervals: tuple
    boundaries: tuple

    @property
    def critical_values(self) -> tuple:
        return tuple(b.refined for b in self.boundaries)

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "kind": "kinesin-sweep",
            "grid": [format_rational(z) for z in self.grid],
            "intervals": [iv.to_json_dict() for iv in self.intervals],
            "boundaries": [b.to_json_dict() for b in self.boundaries],
            "critical_values": [format_rational(v) for v in self.critical_values],
        }


def parse_grid(spec: str) -> list:
    """The inclusive rational grid ``start:stop:step``, e.g. ``1/4:41/4:1/2``."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise GraphError(f"grid must be start:stop:step, got {spec!r}")
    start, stop, step = (parse_rational(p) for p in parts)
    if step <= 0:
        raise GraphError(f"grid step must be positive, got {step}")
    if start > stop:
        raise GraphError(f"grid {spec!r} is empty: its start {start} lies above its stop {stop}")
    out = []
    z = start
    while z <= stop:
        out.append(z)
        z += step
    return out


@dataclass(frozen=True)
class _Regime:
    """The zeta range on which the run at ``zeta`` compares every pair of
    weights the same way: the open interval (``lo``, ``hi``), None for an
    unbounded end, or ``zeta`` alone, ``lo == hi == zeta``.  ``theta`` is
    the final threshold as (value at ``zeta``, slope in zeta)."""

    lo: Optional[Fraction]
    hi: Optional[Fraction]
    zeta: Fraction
    signature: tuple
    theta: tuple

    @property
    def is_point(self) -> bool:
        return self.lo == self.zeta

    def holds(self, z: Fraction) -> bool:
        if self.is_point:
            return z == self.zeta
        return (self.lo is None or self.lo < z) and (self.hi is None or z < self.hi)

    def theta_at(self, z: Fraction) -> Fraction:
        value, slope = self.theta
        return value + slope * (z - self.zeta)


def _regime(zeta: Fraction, rings: tuple) -> _Regime:
    """Run the sweep at ``zeta`` on the ring arcs ``rings`` and replay it
    with affine weights.

    A weight is (value at zeta, integer slope): slope 1 on switch arcs, 0
    on ring arcs, and contraction's ``U - u_min + threshold`` subtracts
    and adds slopes as it does values.  The replay makes the run's
    comparisons again: each vertex's least arcs against its others when it
    enters the bucket, and at each step the released vertices against the
    rest of the bucket.  A strict one, d + s (z - zeta) > 0, bounds the
    regime at zeta - d / s; a tie between different slopes holds at zeta
    alone.  Values are the run's integers, exponents times ``scale``.
    """
    report = _sweep(ChainGraph(_STATES, rings + _switch_arcs(zeta)), kinesin_stop())
    g = report.graph
    scale, values = g.integer_weights
    # switch arcs are exactly the arcs between the rings
    weight = {q: (w, int(q[0][-1] != q[1][-1])) for q, w in values.items()}
    vertex = {s: s for s in g.states}  # state -> current vertex holding it
    out = {s: [a.pair() for a in g.out_arcs(s)] for s in g.states}  # vertex -> arcs leaving it
    taken: set = set()
    bucket: dict = {}  # vertex not yet released -> (least value, its slope, its arcs)
    u_min: dict = {}
    below = above = None  # (d, |s|) of the nearest bound on each side: at distance d / (|s| scale)
    point = False

    def same_order(d: int, slope: int) -> None:
        """Keep a weight d >= 0 above another at zeta, by slope faster."""
        nonlocal below, above, point
        if d == 0:
            point = point or slope != 0
        elif slope > 0:
            if below is None or d * below[1] < below[0] * slope:
                below = d, slope
        elif slope < 0:
            if above is None or d * above[1] < above[0] * -slope:
                above = d, -slope

    def insert(v) -> None:
        live = out[v] = [q for q in out[v] if vertex[q[1]] != v and q not in taken]
        if not live:
            return
        least, slope = min(weight[q] for q in live)
        for q in live:
            w, s = weight[q]
            same_order(w - least, s - slope)
        u_min[v] = least, slope
        bucket[v] = least, slope, [q for q in live if weight[q][0] == least]

    for s in g.states:
        insert(s)
    classes: dict = {}
    for c in report.classes:
        classes.setdefault(c.step, []).append(c)
    for p, released in enumerate(report.transfers_by_step, start=1):
        theta = min(b[:2] for b in bucket.values())
        for b in bucket.values():
            same_order(b[0] - theta[0], b[1] - theta[1])
        going = [v for v, b in bucket.items() if b[0] == theta[0]]
        pairs = {q for v in going for q in bucket.pop(v)[2]}
        if pairs != {a.pair() for a in released}:
            raise InternalInvariantError(f"replay of the sweep at zeta = {zeta} left it at step {p}")
        taken |= pairs
        for c in classes.get(p, ()):
            states = c.vertex.states()
            parts = {vertex[s] for s in states}
            exits = []
            for u in parts:
                for q in out.pop(u):
                    if vertex[q[1]] not in parts and q not in taken:
                        (w, s), (m, m_slope) = weight[q], u_min[u]
                        weight[q] = w - m + theta[0], s - m_slope + theta[1]
                        exits.append(q)
            vertex.update(dict.fromkeys(states, c.vertex))
            out[c.vertex] = exits
            insert(c.vertex)
    if Fraction(theta[0], scale) != report.theta[-1]:
        raise InternalInvariantError(f"replay of the sweep at zeta = {zeta} ended at another threshold")
    if point:
        lo = hi = zeta
    else:
        lo = None if below is None else zeta - Fraction(below[0], below[1] * scale)
        hi = None if above is None else zeta + Fraction(above[0], above[1] * scale)
    signature = tuple(frozenset(a.pair() for a in step) for step in report.transfers_by_step)
    return _Regime(lo, hi, zeta, signature, (report.theta[-1], theta[1]))


def _regimes(grid: list, rings: tuple) -> list:
    """The regimes covering [grid[0], grid[-1]], in order, one run each,
    less the point regimes that cannot change the sweep.

    The end x of an open regime is a point where two weights of different
    slopes tie, so a point regime, and right of a point lies an open
    regime.  When x is not a grid point and the open regimes on its two
    sides differ in signature, the signature changes at x whatever it is
    at x itself, and no grid point takes its theta, so the walk finds the
    right-hand regime first and runs at x only if x is on the grid or the
    two sides' signatures are equal.
    """
    # the regimes found so far, disjoint, sorted by where they end: an open
    # regime r = (lo, hi) as (hi, 0, r), ending just before hi (math.inf if
    # unbounded), and the point regime r at x as (x, 1, r)
    found: list = []

    def at(z: Fraction) -> _Regime:
        i = bisect_left(found, (z, 1))  # the first regime ending at or after z
        if i < len(found) and found[i][2].holds(z):
            return found[i][2]
        r = _regime(z, rings)
        insort(found, (r.zeta, 1, r) if r.is_point else (math.inf if r.hi is None else r.hi, 0, r))
        return r

    def right_of(x: Fraction) -> _Regime:
        """The open regime (x, b): the one at the next grid point or, while
        the regime found there starts beyond x, halfway between x and its
        start."""
        r = at(grid[bisect_right(grid, x)])
        while r.lo != x:
            if r.lo is None or r.lo < x:
                raise InternalInvariantError(
                    f"the regime found right of zeta = {x} starts at {r.lo}, not at it"
                )
            r = at((x + r.lo) / 2)
        return r

    last = grid[-1]
    on_grid = set(grid)
    out = [at(grid[0])]
    while True:
        r = out[-1]
        if r.is_point:
            if r.zeta >= last:
                return out
            out.append(right_of(r.zeta))
            continue
        x = r.hi
        if x is None or x > last:
            return out
        if x in on_grid:
            out.append(at(x))
            continue
        nxt = right_of(x)
        if nxt.signature == r.signature:
            out.append(at(x))
        out.append(nxt)


def _affine_fit(points: Sequence[tuple]) -> Optional[tuple]:
    """Exact (intercept, slope) through the points, or None if not affine."""
    if len(points) < 2:
        return None
    (z1, t1), (z2, t2) = points[0], points[1]
    slope = (t2 - t1) / (z2 - z1)
    intercept = t1 - slope * z1
    for z, t in points:
        if intercept + slope * z != t:
            return None
    return (intercept, slope)


def kinesin_sweep(
    zeta_grid: Sequence,
    params: Optional[KinesinParams] = None,
    bisect: bool = True,
) -> SweepResult:
    """Sweep the switch exponent and partition the grid span by behavior.

    The span is walked one exact regime at a time; a grid point takes its
    signature and final theta from the regime holding it.  Regimes of one
    signature in a row form a segment, and the grid points of a segment
    form an interval whose ``lo``/``hi`` are the segment's ends, clipped to
    the span.  Every point of the span where the signature changes is one
    exact boundary, bracketed by the grid points around it (a grid point
    that is itself such a point is reported as it).  ``bisect`` must be
    True: the mode that gave only brackets of grid points was removed.
    """
    if bisect is not True:
        raise ValueError(
            "kinesin_sweep(bisect=False) was removed: every boundary is now exact, "
            "and its bracket of grid points is in the boundary's lo/hi"
        )
    grid = [parse_rational(z) for z in zeta_grid]
    if not grid:
        raise GraphError("sweep needs a nonempty grid")
    if any(z <= 0 for z in grid):
        raise GraphError("sweep grid values must be positive")
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise GraphError("sweep grid must be strictly increasing")
    if params is None:
        params = KinesinParams(zeta=grid[0])
    rings = _ring_arcs(params)
    first, last = grid[0], grid[-1]
    # every zeta gives a graph on the same arc pairs, so one check covers all
    validate(ChainGraph(_STATES, rings + _switch_arcs(first))).require_one_closed_class()

    segments: list = []  # [lo, hi, signature], unclipped
    seg_of: list = []  # regime index -> segment index
    regimes = _regimes(grid, rings)
    for r in regimes:
        if not segments or segments[-1][2] != r.signature:
            segments.append([r.lo, r.hi, r.signature])
        segments[-1][1] = r.hi
        seg_of.append(len(segments) - 1)

    groups: list = []  # (segment index, [(zeta, theta)])
    i = 0
    for z in grid:
        while not regimes[i].holds(z):
            i += 1
        if not groups or groups[-1][0] != seg_of[i]:
            groups.append((seg_of[i], []))
        groups[-1][1].append((z, regimes[i].theta_at(z)))

    intervals = []
    for k, theta_by in groups:
        lo, hi, signature = segments[k]
        intervals.append(
            SweepInterval(
                lo=first if lo is None or lo < first else lo,
                hi=last if hi is None or hi > last else hi,
                zetas=tuple(z for z, _t in theta_by),
                signature=signature,
                theta_by_zeta=tuple(theta_by),
                exponent_fit=_affine_fit(theta_by),
            )
        )

    # a point whose signature differs from both sides ends two segments
    changes = dict.fromkeys(seg[1] for seg in segments[:-1])
    padded = [None, *grid, None]  # with no grid point on a side, x is its own bracket end
    boundaries = [
        SweepBoundary(
            lo=padded[bisect_left(grid, x)] or x,
            hi=padded[bisect_right(grid, x) + 1] or x,
            refined=x,
        )
        for x in changes
    ]
    return SweepResult(grid=tuple(grid), intervals=tuple(intervals), boundaries=tuple(boundaries))
