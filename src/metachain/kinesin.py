"""Built-in two-ring motor-protein model and its switch-exponent sweep.

The model has two rings of four mechanical states (labels ``1+..4+`` and
``1-..4-``).  Within a ring, barrier heights relative to the tail's well
depth set the arc exponents, with a tilt ``psi`` applied to the two
chemical bonds (2-3 and 4-1): positive tilt on the plus ring, negative on
the minus ring.  Corresponding states of the two rings are linked by
switch arcs whose exponent is the sweep parameter ``zeta``.

The sweep runs the tie-tolerant contraction on a grid of zeta values with
a two-target stop (a class containing one of {1+,1-} and one of {3+,3-}),
groups grid points by the final transition graph together with the order
in which its arcs entered (the per-release-step labeled arc sets), and
locates the boundaries between groups.  The release order matters: two
zeta ranges can end with the same arc set yet build it through different
contraction hierarchies, and those count as different behaviors.  Classes
are piecewise constant in zeta with rational breakpoints, so bisection on
exact rationals pins boundaries exactly; at a breakpoint two release steps
merge into one, so the midpoint's class differs from both bracket ends and
identifies the breakpoint in finitely many steps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence

from .alg2 import run_algorithm2
from .chain import Arc, ChainGraph, GraphError, parse_rational
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
    "simplest_rational_between",
]

MAX_BISECTION_STEPS = 20


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

    def with_zeta(self, zeta) -> "KinesinParams":
        return replace(self, zeta=parse_rational(zeta))


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


def build_kinesin(p: KinesinParams) -> ChainGraph:
    """Eight-state chain graph of the two-ring model, no prefactors."""
    if p.zeta <= 0:
        raise GraphError(f"switch exponent must be positive, got {p.zeta}")
    states = [f"{i}{sign}" for sign in ("+", "-") for i in (1, 2, 3, 4)]
    arcs: list[Arc] = []
    for sign, psi in (("+", p.psi), ("-", -p.psi)):
        for (i, j), u in _ring_exponents(p, psi).items():
            if u <= 0:
                raise GraphError(
                    f"arc {i}{sign}->{j}{sign} has exponent {u} <= 0; barriers "
                    "must exceed adjacent well depths after the tilt"
                )
            arcs.append(Arc(f"{i}{sign}", f"{j}{sign}", u))
    for i in (1, 2, 3, 4):
        arcs.append(Arc(f"{i}+", f"{i}-", p.zeta))
        arcs.append(Arc(f"{i}-", f"{i}+", p.zeta))
    return ChainGraph(tuple(states), tuple(arcs))


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
    lo: Fraction
    hi: Fraction
    refined: Optional[Fraction]
    exact: bool

    def to_json_dict(self) -> dict:
        return {
            "bracket": [format_rational(self.lo), format_rational(self.hi)],
            "refined": None if self.refined is None else format_rational(self.refined),
            "exact": self.exact,
        }


@dataclass(frozen=True)
class SweepResult:
    grid: tuple
    intervals: tuple
    boundaries: tuple

    @property
    def critical_values(self) -> tuple:
        return tuple(b.refined for b in self.boundaries if b.refined is not None)

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


def _signature_at(zeta: Fraction, params: KinesinParams) -> tuple:
    report = run_algorithm2(build_kinesin(params.with_zeta(zeta)), stop=kinesin_stop())
    # labeled arc sets, one per release step; equal tuples mean the same
    # arcs entered in the same groups (theta values themselves may move with
    # zeta inside an interval, so they are not part of the key)
    steps = tuple(frozenset(a.pair() for a in step) for step in report.transfers_by_step)
    theta_final = report.theta[-1] if report.theta else None
    return steps, theta_final


def simplest_rational_between(lo: Fraction, hi: Fraction) -> Fraction:
    """Smallest-denominator rational strictly inside the open interval."""
    if lo >= hi:
        raise ValueError(f"need lo < hi, got {lo} >= {hi}")
    if lo < 0:
        if hi > 0:
            return Fraction(0)
        return -simplest_rational_between(-hi, -lo)
    fl = lo.numerator // lo.denominator
    if Fraction(fl + 1) < hi:
        return Fraction(fl + 1)
    if lo == fl:
        # (integer, hi): smallest q with fl + 1/q inside
        q = ((hi - fl) ** -1).__floor__() + 1
        return fl + Fraction(1, q)
    inner = simplest_rational_between((hi - fl) ** -1, (lo - fl) ** -1)
    return fl + inner**-1


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
    """Sweep the switch exponent and partition the grid range by behavior.

    Consecutive grid points whose runs release the same labeled arc sets
    in the same order join one interval; each boundary between distinct
    intervals is reported as the bracketing grid pair, refined by
    exact-rational bisection when ``bisect`` is set.
    """
    grid = [parse_rational(z) for z in zeta_grid]
    if not grid:
        raise GraphError("sweep needs a nonempty grid")
    if any(z <= 0 for z in grid):
        raise GraphError("sweep grid values must be positive")
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise GraphError("sweep grid must be strictly increasing")
    if params is None:
        params = KinesinParams(zeta=grid[0])

    sig_cache: dict = {}

    def signature(z: Fraction) -> tuple:
        if z not in sig_cache:
            sig_cache[z] = _signature_at(z, params)
        return sig_cache[z]

    groups: list[list] = []
    for z in grid:
        sig, _theta = signature(z)
        if groups and signature(groups[-1][-1])[0] == sig:
            groups[-1].append(z)
        else:
            groups.append([z])

    boundaries: list[SweepBoundary] = []
    for left, right in zip(groups, groups[1:]):
        lo, hi = left[-1], right[0]
        refined = None
        exact = False
        if bisect:
            refined, exact = _bisect_boundary(lo, hi, signature)
        boundaries.append(SweepBoundary(lo=lo, hi=hi, refined=refined, exact=exact))

    intervals: list[SweepInterval] = []
    for i, zs in enumerate(groups):
        lo = grid[0] if i == 0 else _boundary_value(boundaries[i - 1])
        hi = grid[-1] if i == len(groups) - 1 else _boundary_value(boundaries[i])
        sig = signature(zs[0])[0]
        theta_by = tuple((z, signature(z)[1]) for z in zs)
        intervals.append(
            SweepInterval(
                lo=lo,
                hi=hi,
                zetas=tuple(zs),
                signature=sig,
                theta_by_zeta=theta_by,
                exponent_fit=_affine_fit(theta_by),
            )
        )
    return SweepResult(grid=tuple(grid), intervals=tuple(intervals), boundaries=tuple(boundaries))


def _boundary_value(b: SweepBoundary) -> Fraction:
    return b.refined if b.refined is not None else (b.lo + b.hi) / 2


def _bisect_boundary(lo: Fraction, hi: Fraction, signature) -> tuple:
    """Pin the class breakpoint in (lo, hi); returns (value, exact_flag).

    A midpoint whose class matches neither bracket end must itself be the
    breakpoint (classes are piecewise constant with a degenerate class at
    the break), so it is returned exactly.  Otherwise the bracket shrinks;
    after the step budget the simplest rational inside is returned, which
    recovers breakpoints of small denominator from any tight bracket.
    """
    sig_lo = signature(lo)[0]
    sig_hi = signature(hi)[0]
    for _ in range(MAX_BISECTION_STEPS):
        mid = (lo + hi) / 2
        sig_mid = signature(mid)[0]
        if sig_mid == sig_lo:
            lo = mid
        elif sig_mid == sig_hi:
            hi = mid
        else:
            return mid, True
    return simplest_rational_between(lo, hi), False
