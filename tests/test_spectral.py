"""Numerical spectra vs sweep estimates, and the coefficient identity."""

from fractions import Fraction
from math import exp, log

import numpy as np
import pytest

import metachain as mc
from metachain import spectral
from metachain.chain import generator_matrix
from metachain.demos import tied_min_arc_chain, two_state_chain
from metachain.spectral import eigenvalue_magnitudes, numerical_eigenvalues

F = Fraction


def count_near_zero(eigs: np.ndarray, norm: float, tol: float = 1e-10) -> int:
    return int(np.sum(np.abs(eigs) <= tol * norm))


def five_state_graph():
    return mc.chain_graph(
        [
            (1, 2, 1),
            (2, 3, F(3, 2)),
            (3, 1, 2),
            (3, 4, F(1, 2)),
            (4, 5, 1),
            (5, 1, F(7, 10)),
            (2, 1, F(9, 5)),
            (4, 2, F(11, 10)),
        ]
    )


def test_eigenvalue_order_and_zero():
    gm = generator_matrix(two_state_chain(), 0.1)
    eigs = numerical_eigenvalues(gm)
    assert len(eigs) == 2
    assert abs(eigs[0]) <= 1e-12 * gm.norm()
    assert eigs[0].real >= eigs[1].real
    assert count_near_zero(eigs, gm.norm()) == 1


def test_two_state_magnitude_exactly():
    gm = generator_matrix(two_state_chain(), 0.1)
    (lam,) = eigenvalue_magnitudes(numerical_eigenvalues(gm))
    exact = exp(-10) + exp(-20)
    assert lam == pytest.approx(exact, rel=1e-12)
    est = mc.eigenvalue_estimates(mc.run_algorithm1(two_state_chain()), 0.1)
    rel_err = abs(lam - est.lam[0]) / lam
    assert rel_err == pytest.approx(exp(-10), rel=1e-3)


def test_estimates_basic():
    rep = mc.run_algorithm1(two_state_chain())
    est = mc.eigenvalue_estimates(rep, 0.1)
    assert est.lam == (exp(-10),)
    assert est.log_lam == (-10.0,)
    assert est.underflow == (False,)
    assert est.alpha is None and est.order_one_only
    assert est.diagonalizable_assumed
    doc = est.to_json_dict()
    assert doc["kind"] == "spectral-estimate" and doc["delta"] == ["1"]


def test_estimates_underflow_keeps_logs():
    rep = mc.run_algorithm1(mc.nested_cycle_chain())
    est = mc.eigenvalue_estimates(rep, 0.005)
    assert est.underflow[0] and est.lam[0] == 0.0
    assert est.log_lam[0] == pytest.approx(-760.0)


def test_estimates_guard_rails():
    rep = mc.run_algorithm1(two_state_chain())
    with pytest.raises(ValueError):
        mc.eigenvalue_estimates(rep, 0.0)
    tied = mc.run_algorithm1(tied_min_arc_chain())
    with pytest.raises(mc.SymmetryError):
        mc.eigenvalue_estimates(tied, 0.1)
    partial = mc.run_algorithm1(
        mc.nested_cycle_chain(), stop=mc.StopCriterion.exponent_threshold(F(3))
    )
    with pytest.raises(mc.GraphError):
        mc.eigenvalue_estimates(partial, 0.1)


def test_compare_spectrum_bare_exponents():
    g = two_state_chain()
    rows = mc.compare_spectrum(g, mc.run_algorithm1(g), (0.5, 0.25))
    assert [r.epsilon for r in rows] == [0.5, 0.25]
    # defect is eps*log(1 + e^(-1/eps)) here, so it must shrink
    assert rows[0].defect[0] > rows[1].defect[0]
    assert rows[1].defect[0] < 0.01
    # the order-one factor is 1 + e^(-1/eps)
    assert rows[0].ratio[0] == pytest.approx(1 + exp(-2), rel=1e-9)
    assert rows[1].ratio[0] == pytest.approx(1 + exp(-4), rel=1e-9)
    assert rows[0].max_imag == 0.0


def test_compare_spectrum_with_prefactors():
    g = mc.chain_graph([(1, 2, 1, 2.0), (2, 1, 2, 3.0)])
    rep = mc.run_algorithm1(g)
    assert rep.alpha == (2.0,)
    rows = mc.compare_spectrum(g, rep, (0.5, 0.25, 0.1))
    defects = [r.defect[0] for r in rows]
    # alpha != 1, so the exponent defect decays like eps*log(alpha)
    assert defects[0] > defects[1] > defects[2]
    assert defects[2] == pytest.approx(0.1 * log(2), rel=1e-2)
    assert rows[2].ratio[0] == pytest.approx(1.0, abs=1e-3)


def test_compare_spectrum_row_json():
    g = two_state_chain()
    (row,) = mc.compare_spectrum(g, mc.run_algorithm1(g), (0.5,))
    doc = row.to_json_dict()
    assert set(doc) == {
        "epsilon", "numerical", "estimated_log", "defect", "ratio", "max_imag"
    }


def test_spectral_corpus_spot_check(spectral_corpus):
    g, rep = spectral_corpus[0]
    rows = mc.compare_spectrum(g, rep, (0.1, 0.05, 0.025))
    for m in range(g.n - 1):
        assert rows[0].defect[m] > rows[1].defect[m] > rows[2].defect[m]
        assert rows[2].defect[m] < 0.02
        assert 0.8 <= rows[2].ratio[m] <= 1.25


def leverrier_faddeev(M):
    """Characteristic coefficients by the trace recursion, highest first."""
    n = M.shape[0]
    coeffs = [1.0]
    B = np.zeros_like(M)
    c = 1.0
    for k in range(1, n + 1):
        B = M @ B + c * np.eye(n)
        c = -np.trace(M @ B) / k
        coeffs.append(c)
    return np.array(coeffs)


def test_five_state_spectrum_against_trace_recursion():
    gm = generator_matrix(five_state_graph(), 0.7)
    eigs = numerical_eigenvalues(gm)
    roots = np.roots(leverrier_faddeev(gm.matrix))
    key = lambda z: (round(z.real, 10), round(z.imag, 10))
    for a, b in zip(sorted(eigs, key=key), sorted(roots, key=key)):
        assert abs(a - b) < 1e-8


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


def test_charpoly_two_state_exact():
    rep = mc.charpoly_identity_check(two_state_chain(), 1.0)
    assert rep.max_rel_residual == 0.0
    assert rep.t0_coefficient == 0.0
    doc = rep.to_json_dict()
    assert doc["kind"] == "charpoly-report" and doc["schema"] == 2 and doc["epsilon"] == 1.0
    assert "minors_path_used" not in doc


def test_charpoly_complete_four_state():
    arcs = []
    w = F(1, 10)
    for i in range(1, 5):
        for j in range(1, 5):
            if i != j:
                arcs.append((i, j, w))
                w += F(1, 10)
    rep = mc.charpoly_identity_check(mc.chain_graph(arcs), 0.5)
    assert rep.max_rel_residual < 1e-9
    assert abs(rep.t0_coefficient) < 1e-12
    assert len(rep.rel_residuals) == 3


def test_charpoly_beyond_minor_range():
    rep = mc.charpoly_identity_check(mc.nested_cycle_chain(), 1.0)
    assert rep.max_rel_residual < 1e-8


@pytest.mark.parametrize("make", [mc.nested_cycle_chain, mc.nested_cycle_chain_integer])
def test_charpoly_seven_states_at_small_epsilon(make):
    # coefficients from products of eigenvalues cancel badly here; sums of minors do not
    rep = mc.charpoly_identity_check(make(), 0.05)
    assert rep.max_rel_residual < 1e-6


def test_charpoly_refuses_an_underflowing_arc_rate():
    g = mc.nested_cycle_chain_integer()  # exp(-14 / 0.01) of arc 3->4 is 0.0
    with pytest.raises(mc.GraphError, match=r"arc 3->4 has rate 0\.0 at epsilon=0\.01"):
        mc.charpoly_identity_check(g, 0.01)


def test_charpoly_cap():
    ring = mc.chain_graph([(i, i % 10 + 1, i) for i in range(1, 11)])
    with pytest.raises(mc.EnumerationCapError):
        mc.charpoly_identity_check(ring, 1.0)


def test_charpoly_refuses_a_chain_over_the_cap_before_building_the_generator(monkeypatch):
    ring = mc.chain_graph([(i, i % 3000 + 1, 1) for i in range(1, 3001)])
    monkeypatch.setattr(spectral, "generator_matrix", lambda *args: pytest.fail("built the generator"))
    with pytest.raises(mc.EnumerationCapError, match="over 3000 vertices exceeds the cap of 9"):
        mc.charpoly_identity_check(ring, 1.0)
