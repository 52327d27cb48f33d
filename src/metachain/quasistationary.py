"""Quasi-invariant distributions on cycles and on closed classes.

Before a cycle (or, with ties, a closed class) is left for good, the chain
relaxes to a distribution concentrated near the member with the largest
exit exponent.  These helpers compute that distribution and the exponent of
each escape route; the escape exponents must coincide with the reweighting
rules used by the contraction sweeps, which is the structural link between
the graph algorithms and the underlying stochastic dynamics.  Tests verify
that link numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import exp
from typing import Sequence

import numpy as np

from .chain import Arc, GraphError, State, ValidationFailure, check_epsilon, state_key

__all__ = [
    "CycleDistribution",
    "quasi_invariant_cycle",
    "cycle_exit_exponent",
    "ClassDistribution",
    "quasi_invariant_class",
]


@dataclass(frozen=True)
class CycleDistribution:
    states: tuple
    weights: tuple
    probs: tuple
    peak_state: State
    u_max: Fraction
    u_along: dict
    kappa_along: dict
    epsilon: float

    def exit_exponent(self, arc: Arc) -> Fraction:
        """Exponent of the escape rate along an arc leaving the cycle."""
        if arc.tail not in self.u_along:
            raise GraphError(f"arc tail {arc.tail!r} is not on the cycle")
        return arc.weight + self.u_max - self.u_along[arc.tail]

    def exit_rate(self, arc: Arc) -> float:
        i = self.states.index(arc.tail)
        kappa = 1.0 if arc.kappa is None else arc.kappa
        return self.probs[i] * kappa * exp(-float(arc.weight) / self.epsilon)


def quasi_invariant_cycle(cycle_arcs: Sequence[Arc], epsilon: float) -> CycleDistribution:
    """Asymptotic occupation law of a simple directed cycle.

    ``cycle_arcs`` lists the cycle in walk order (each head is the next
    tail, the last head closes back on the first tail).  The unnormalized
    weight of member i is (kappa_peak / kappa_i) * exp((U_i - U_max)/eps)
    where U_i is the weight of i's cycle arc and the peak member attains
    U_max; entry values are also returned normalized to a distribution.
    """
    epsilon = check_epsilon(epsilon)
    if len(cycle_arcs) < 2:
        raise GraphError("a cycle needs at least two arcs")
    states = [a.tail for a in cycle_arcs]
    if len(set(states)) != len(states):
        raise GraphError("cycle arcs revisit a vertex")
    for a, b in zip(cycle_arcs, cycle_arcs[1:]):
        if a.head != b.tail:
            raise GraphError(f"arcs {a.tail!r}->{a.head!r} and {b.tail!r}->... do not chain")
    if cycle_arcs[-1].head != cycle_arcs[0].tail:
        raise GraphError("arc sequence does not close into a cycle")

    u_along = {a.tail: a.weight for a in cycle_arcs}
    kappa_along = {a.tail: (1.0 if a.kappa is None else a.kappa) for a in cycle_arcs}
    u_max = max(u_along.values())
    peak = min(
        (s for s in states if u_along[s] == u_max), key=state_key
    )
    kappa_peak = kappa_along[peak]
    weights = [
        (kappa_peak / kappa_along[s]) * exp(float(u_along[s] - u_max) / epsilon)
        for s in states
    ]
    total = sum(weights)
    return CycleDistribution(
        states=tuple(states),
        weights=tuple(weights),
        probs=tuple(w / total for w in weights),
        peak_state=peak,
        u_max=u_max,
        u_along=u_along,
        kappa_along=kappa_along,
        epsilon=epsilon,
    )


def cycle_exit_exponent(cycle_arcs: Sequence[Arc], exit_arc: Arc) -> Fraction:
    """Exit exponent U_exit + U_max - U_along(tail), without building the law."""
    u_along = {a.tail: a.weight for a in cycle_arcs}
    if exit_arc.tail not in u_along:
        raise GraphError(f"arc tail {exit_arc.tail!r} is not on the cycle")
    u_max = max(u_along.values())
    return exit_arc.weight + u_max - u_along[exit_arc.tail]


@dataclass(frozen=True)
class ClassDistribution:
    states: tuple
    xi: tuple
    probs: tuple
    theta: Fraction
    u_min: dict
    epsilon: float

    def exit_exponent(self, arc: Arc) -> Fraction:
        if arc.tail not in self.u_min:
            raise GraphError(f"arc tail {arc.tail!r} is not in the class")
        return arc.weight + self.theta - self.u_min[arc.tail]


def quasi_invariant_class(
    states: Sequence[State], t_arcs: Sequence[Arc], epsilon: float
) -> ClassDistribution:
    """Asymptotic occupation law of a closed class of a transition graph.

    ``t_arcs`` are the class's internal transition arcs; all out-arcs of a
    vertex must share one weight (its in-force minimum), which makes the
    order-one jump skeleton independent of epsilon.  The law combines the
    left null vector xi of that skeleton with per-vertex Boltzmann factors
    exp((U_min(i) - theta)/eps), theta being the largest per-vertex
    minimum.  A null space of dimension above one means the arcs do not
    form a single communicating class and is rejected.
    """
    epsilon = check_epsilon(epsilon)
    states = tuple(states)
    if len(states) < 2:
        raise GraphError("a class needs at least two members")
    known = set(states)
    u_min: dict = {}
    for a in t_arcs:
        if a.tail not in known or a.head not in known:
            raise GraphError(f"arc {a.tail!r}->{a.head!r} leaves the class")
        if a.tail in u_min and u_min[a.tail] != a.weight:
            raise GraphError(
                f"vertex {a.tail!r} carries out-arcs of different weights; "
                "transition arcs of one vertex must share its minimum"
            )
        u_min[a.tail] = a.weight
    missing = [s for s in states if s not in u_min]
    if missing:
        raise GraphError(f"class members without outgoing arcs: {missing!r}")

    idx = {s: i for i, s in enumerate(states)}
    n = len(states)
    M = np.zeros((n, n))
    for a in t_arcs:
        kappa = 1.0 if a.kappa is None else a.kappa
        M[idx[a.tail], idx[a.head]] += kappa
    np.fill_diagonal(M, M.diagonal() - M.sum(axis=1))

    # left null vector of M == right null vector of M transposed
    u, s, vt = np.linalg.svd(M.T)
    tol = max(n, 10) * np.finfo(float).eps * (s[0] if len(s) else 1.0)
    null_dim = int(np.sum(s <= tol))
    if null_dim != 1:
        raise ValidationFailure(
            f"jump skeleton has a null space of dimension {null_dim}; "
            "the arcs do not form a single closed communicating class"
        )
    xi = vt[-1]
    if xi.sum() < 0:
        xi = -xi
    if np.any(xi < -1e-12 * np.max(np.abs(xi))):
        raise ValidationFailure("null vector is not sign-definite; class is malformed")
    xi = np.clip(xi, 0.0, None)

    theta = max(u_min.values())
    weights = np.array(
        [exp(float(u_min[st] - theta) / epsilon) * xi[idx[st]] for st in states]
    )
    probs = weights / weights.sum()
    return ClassDistribution(
        states=states,
        xi=tuple(float(x) for x in xi),
        probs=tuple(float(p) for p in probs),
        theta=theta,
        u_min=u_min,
        epsilon=epsilon,
    )
