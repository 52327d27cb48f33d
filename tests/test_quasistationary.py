"""Occupation laws on cycles and closed classes, and their escape rates."""

from fractions import Fraction
from math import exp, log

import numpy as np
import pytest

import metachain as mc
from metachain.chain import Arc, generator_matrix
from metachain.quasistationary import (
    cycle_exit_exponent,
    quasi_invariant_class,
    quasi_invariant_cycle,
)

F = Fraction


def two_cycle(k1=None, k2=None):
    return [Arc(1, 2, F(1), k1), Arc(2, 1, F(2), k2)]


def test_cycle_law_two_states():
    law = quasi_invariant_cycle(two_cycle(), 0.5)
    assert law.states == (1, 2)
    assert law.peak_state == 2
    assert law.u_max == F(2)
    assert law.weights == pytest.approx((exp(-2), 1.0))
    total = 1 + exp(-2)
    assert law.probs == pytest.approx((exp(-2) / total, 1 / total))


def test_cycle_law_prefactor_tilt():
    law = quasi_invariant_cycle(two_cycle(4.0, 2.0), 0.5)
    # weight of a member scales with kappa_peak / kappa_member
    assert law.weights == pytest.approx((0.5 * exp(-2), 1.0))


def test_cycle_law_rejects_malformed_input():
    with pytest.raises(mc.GraphError):
        quasi_invariant_cycle([Arc(1, 1, F(1))], 0.5)
    with pytest.raises(mc.GraphError):
        quasi_invariant_cycle([Arc(1, 2, F(1)), Arc(3, 1, F(1))], 0.5)
    with pytest.raises(mc.GraphError):
        quasi_invariant_cycle([Arc(1, 2, F(1)), Arc(2, 3, F(1))], 0.5)
    with pytest.raises(mc.GraphError):
        quasi_invariant_cycle(
            [Arc(1, 2, F(1)), Arc(2, 1, F(1)), Arc(1, 3, F(1))], 0.5
        )
    with pytest.raises(ValueError):
        quasi_invariant_cycle(two_cycle(), 0.0)


def triangle():
    # the inner loop of the integer demo, in walk order
    return [Arc(1, 2, F(1)), Arc(2, 3, F(3)), Arc(3, 1, F(1))]


def test_exit_exponents_match_contraction_rule():
    # exits of the first contracted class of the integer demo
    assert cycle_exit_exponent(triangle(), Arc(1, 5, F(2))) == F(4)
    assert cycle_exit_exponent(triangle(), Arc(1, 6, F(2))) == F(4)
    assert cycle_exit_exponent(triangle(), Arc(2, 5, F(4))) == F(4)
    assert cycle_exit_exponent(triangle(), Arc(3, 4, F(14))) == F(16)
    with pytest.raises(mc.GraphError):
        cycle_exit_exponent(triangle(), Arc(9, 5, F(2)))


def test_exit_exponent_agrees_with_law_method():
    law = quasi_invariant_cycle(triangle(), 0.25)
    for arc in (Arc(1, 5, F(2)), Arc(2, 5, F(4)), Arc(3, 4, F(14))):
        assert law.exit_exponent(arc) == cycle_exit_exponent(triangle(), arc)
    with pytest.raises(mc.GraphError):
        law.exit_exponent(Arc(9, 5, F(2)))


def test_exit_rate_combines_occupation_and_arc_rate():
    law = quasi_invariant_cycle(triangle(), 0.25)
    arc = Arc(2, 5, F(4), 1.5)
    i = law.states.index(2)
    assert law.exit_rate(arc) == pytest.approx(law.probs[i] * 1.5 * exp(-16.0))


def test_pure_cycle_law_is_the_stationary_distribution():
    """On a bare cycle the occupation law is exact at every epsilon."""
    eps = 0.05
    arcs = [
        Arc(1, 2, F(1), 1.3),
        Arc(2, 3, F(2), 0.7),
        Arc(3, 4, F(1, 2), 1.0),
        Arc(4, 1, F(3, 2), 0.9),
    ]
    law = quasi_invariant_cycle(arcs, eps)
    g = mc.chain_graph([(a.tail, a.head, a.weight, a.kappa) for a in arcs])
    L = generator_matrix(g, eps)
    _u, s, vt = np.linalg.svd(L.matrix.T)
    pi = np.abs(vt[-1])
    pi /= pi.sum()
    for i, st in enumerate(law.states):
        exact = pi[L.index[st]]
        assert abs(law.probs[i] - exact) <= 0.05 * exact


def tie_class_arcs():
    return [Arc(1, 2, F(2)), Arc(1, 3, F(2)), Arc(2, 1, F(2)), Arc(3, 1, F(2))]


def test_class_law_uniform_exponents():
    law = quasi_invariant_class((1, 2, 3), tie_class_arcs(), 0.2)
    assert law.theta == F(2)
    assert law.u_min == {1: F(2), 2: F(2), 3: F(2)}
    # the rate skeleton is doubly balanced here, so the law is uniform
    assert law.probs == pytest.approx((1 / 3, 1 / 3, 1 / 3))
    assert law.exit_exponent(Arc(2, 4, F(3))) == F(3)
    with pytest.raises(mc.GraphError):
        law.exit_exponent(Arc(7, 4, F(3)))


def test_class_law_matches_cycle_law_on_a_cycle():
    eps = 0.4
    cyc = quasi_invariant_cycle(two_cycle(), eps)
    cls = quasi_invariant_class((1, 2), two_cycle(), eps)
    assert cls.theta == cyc.u_max
    for st in (1, 2):
        assert cls.probs[cls.states.index(st)] == pytest.approx(
            cyc.probs[cyc.states.index(st)], rel=1e-12
        )


def test_class_law_guard_rails():
    with pytest.raises(mc.GraphError):
        quasi_invariant_class((1,), [], 0.5)
    with pytest.raises(mc.GraphError):
        quasi_invariant_class((1, 2), [Arc(1, 2, F(1)), Arc(2, 3, F(1))], 0.5)
    with pytest.raises(mc.GraphError):  # vertex 1 with two different weights
        quasi_invariant_class(
            (1, 2), [Arc(1, 2, F(1)), Arc(1, 2, F(2)), Arc(2, 1, F(1))], 0.5
        )
    with pytest.raises(mc.GraphError):  # member 3 never leaves
        quasi_invariant_class(
            (1, 2, 3), [Arc(1, 2, F(1)), Arc(2, 1, F(1))], 0.5
        )
    with pytest.raises(ValueError):
        quasi_invariant_class((1, 2), two_cycle(), -1.0)


def test_class_law_rejects_disconnected_skeleton():
    arcs = [Arc(1, 2, F(1)), Arc(2, 1, F(1)), Arc(3, 4, F(1)), Arc(4, 3, F(1))]
    with pytest.raises(mc.ValidationFailure) as err:
        quasi_invariant_class((1, 2, 3, 4), arcs, 0.5)
    assert "dimension 2" in str(err.value)


def test_escape_rate_exponent():
    """Killing the class through its exit reproduces the exit exponent."""
    g = mc.chain_graph(
        [(1, 2, 2), (1, 3, 2), (2, 1, 2), (3, 1, 2), (2, 4, 3), (4, 1, 1)]
    )
    defects = []
    for eps in (0.15, 0.1):
        gm = generator_matrix(g, eps)
        keep = [gm.index[s] for s in (1, 2, 3)]
        killed = gm.matrix[np.ix_(keep, keep)]
        rate = -np.max(np.real(np.linalg.eigvals(killed)))
        assert rate > 0
        defects.append(abs(eps * log(rate) + 3.0))
    assert defects[0] > defects[1]
    assert defects[1] <= 0.3


def test_escape_rate_level():
    """The occupation law predicts the killed-class rate itself, not just
    its exponent: law weight of the exit's tail times the arc rate."""
    g = mc.chain_graph(
        [(1, 2, 2), (1, 3, 2), (2, 1, 2), (3, 1, 2), (2, 4, 3), (4, 1, 1)]
    )
    for eps in (0.2, 0.15, 0.1):
        law = quasi_invariant_class((1, 2, 3), tie_class_arcs(), eps)
        predicted = law.probs[law.states.index(2)] * exp(-3.0 / eps)
        gm = generator_matrix(g, eps)
        keep = [gm.index[s] for s in (1, 2, 3)]
        rate = -np.max(np.real(np.linalg.eigvals(gm.matrix[np.ix_(keep, keep)])))
        assert abs(rate - predicted) <= 0.10 * rate
