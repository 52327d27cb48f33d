"""Numerical spectra, asymptotic eigenvalue estimates, coefficient identity.

The sweep report predicts the small eigenvalues of the generator as
``lambda_m ~ alpha_m * exp(-delta_m / epsilon)``.  This module computes the
numerical spectrum for comparison, always carrying log-space values so that
estimates below the smallest positive normal float remain comparable.

The coefficient identity ties the characteristic polynomial of the
generator to sums over spanning in-forests: the coefficient of ``t^(n-l)``
equals both the sum of l-by-l principal minors of ``-L`` (all nonnegative
for a generator, so the sum is cancellation-free) and the sum over
in-forests with ``n-l`` sinks of the product of their arc rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import exp, log
from typing import Optional, Sequence

import numpy as np

from .chain import (
    ChainGraph,
    GeneratorMatrix,
    GraphError,
    SymmetryError,
    check_epsilon,
    generator_matrix,
)
from .graphio import format_rational
from .wgraph import DEFAULT_ENUMERATION_CAP, _check_cap, _iter_assignments

__all__ = [
    "numerical_eigenvalues",
    "eigenvalue_magnitudes",
    "SpectralEstimate",
    "eigenvalue_estimates",
    "SpectralRow",
    "compare_spectrum",
    "CharpolyReport",
    "charpoly_identity_check",
]

def numerical_eigenvalues(gm: GeneratorMatrix) -> np.ndarray:
    """All eigenvalues of L, sorted by descending real part.

    Uses LAPACK's balanced nonsymmetric solver via numpy.  The first entry
    is the near-zero eigenvalue of the generator.  No multiplicity check
    happens here: at small epsilon several eigenvalues can legitimately sit
    inside any fixed window around zero, so callers decide what to assert.
    """
    try:
        eigs = np.linalg.eigvals(gm.matrix)
    except np.linalg.LinAlgError as exc:
        raise GraphError(f"eigenvalue iteration failed to converge: {exc}") from exc
    order = np.lexsort((np.abs(eigs.imag), -eigs.real))
    return eigs[order]


def eigenvalue_magnitudes(eigs: np.ndarray) -> np.ndarray:
    """Positive decay rates: negated real parts of the nonzero eigenvalues."""
    return -np.real(eigs[1:])


@dataclass(frozen=True)
class SpectralEstimate:
    epsilon: float
    delta: tuple
    alpha: Optional[tuple]
    log_lam: tuple
    lam: tuple
    underflow: tuple
    order_one_only: bool
    diagonalizable_assumed: bool = True

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "kind": "spectral-estimate",
            "epsilon": self.epsilon,
            "delta": [format_rational(d) for d in self.delta],
            "alpha": None if self.alpha is None else list(self.alpha),
            "log_lambda": list(self.log_lam),
            "lambda": list(self.lam),
            "underflow": list(self.underflow),
            "order_one_only": self.order_one_only,
            "diagonalizable_assumed": self.diagonalizable_assumed,
        }


def eigenvalue_estimates(report, epsilon: float) -> SpectralEstimate:
    """Asymptotic eigenvalue estimates from a completed symmetry-free report.

    Estimate m is ``alpha_m * exp(-delta_m / epsilon)`` (alpha defaults
    to 1 when the graph carries no prefactors, making the values correct to
    exponential order only).  Values too small for float64 are returned as
    0.0 with the underflow flag set; ``log_lam`` is always exact.
    """
    if report.symmetry_detected:
        raise SymmetryError(
            "eigenvalue estimates need a symmetry-free run; ties were "
            f"detected at step {report.symmetry_step}"
        )
    if any(d is None for d in report.delta):
        raise GraphError("report stopped early; eigenvalue exponents are incomplete")
    epsilon = check_epsilon(epsilon)
    delta = report.delta
    alpha = report.alpha
    log_lam = []
    lam = []
    underflow = []
    tiny = np.finfo(float).tiny
    for m, d in enumerate(delta, start=1):
        a = 1.0 if alpha is None else alpha[m - 1]
        ll = log(a) - float(d) / epsilon
        log_lam.append(ll)
        if ll < log(tiny):
            lam.append(0.0)
            underflow.append(True)
        else:
            lam.append(exp(ll))
            underflow.append(False)
    return SpectralEstimate(
        epsilon=epsilon,
        delta=tuple(delta),
        alpha=alpha,
        log_lam=tuple(log_lam),
        lam=tuple(lam),
        underflow=tuple(underflow),
        order_one_only=report.order_one_only,
    )


@dataclass(frozen=True)
class SpectralRow:
    epsilon: float
    numerical: tuple
    estimate: SpectralEstimate
    defect: tuple
    ratio: tuple
    max_imag: float

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "numerical": list(self.numerical),
            "estimated_log": list(self.estimate.log_lam),
            "defect": list(self.defect),
            "ratio": list(self.ratio),
            "max_imag": self.max_imag,
        }


def compare_spectrum(g: ChainGraph, report, epsilons: Sequence[float]) -> tuple:
    """Numerical vs estimated spectra across an epsilon schedule.

    Row defect m is ``|epsilon * log lambda_m_num + delta_m|``, the error
    in the decay exponent itself; it shrinks linearly in epsilon whenever
    the prefactor is not exactly one.  Row ratio m is
    ``lambda_m_num / (alpha_m * exp(-delta_m / epsilon))``, the remaining
    order-one factor, and tends to one.  Both are computed in log space so
    underflowing estimates stay comparable.
    """
    rows = []
    for eps in epsilons:
        est = eigenvalue_estimates(report, eps)
        eigs = numerical_eigenvalues(generator_matrix(g, eps))
        lam_num = eigenvalue_magnitudes(eigs)
        defects = []
        ratios = []
        for m in range(1, g.n):
            num = float(lam_num[m - 1])
            if num <= 0:
                raise GraphError(
                    f"numerical eigenvalue {m} is nonpositive ({num}) at eps={eps}; "
                    "the spectrum is below float resolution for this graph"
                )
            defects.append(abs(eps * log(num) + float(est.delta[m - 1])))
            log_ratio = log(num) - est.log_lam[m - 1]
            try:
                ratios.append(exp(log_ratio))
            except OverflowError:
                ratios.append(float("inf"))
        rows.append(
            SpectralRow(
                epsilon=float(eps),
                numerical=tuple(float(x) for x in lam_num),
                estimate=est,
                defect=tuple(defects),
                ratio=tuple(ratios),
                max_imag=float(np.max(np.abs(eigs.imag))),
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class CharpolyReport:
    epsilon: float
    coeff_matrix: tuple
    coeff_wgraphs: tuple
    rel_residuals: tuple
    max_rel_residual: float
    t0_coefficient: float
    diagonalizable_assumed: bool = True

    def to_json_dict(self) -> dict:
        return {
            "schema": 2,
            "kind": "charpoly-report",
            "epsilon": self.epsilon,
            "coeff_matrix": list(self.coeff_matrix),
            "coeff_wgraphs": list(self.coeff_wgraphs),
            "rel_residuals": list(self.rel_residuals),
            "max_rel_residual": self.max_rel_residual,
            "t0_coefficient": self.t0_coefficient,
            "diagonalizable_assumed": self.diagonalizable_assumed,
        }


def _coeffs_via_minors(L: np.ndarray) -> np.ndarray:
    """C_l = sum of l-by-l principal minors of -L; every term is >= 0."""
    n = L.shape[0]
    neg = -L
    C = np.zeros(n + 1)
    C[0] = 1.0
    for l in range(1, n + 1):
        total = 0.0
        for subset in combinations(range(n), l):
            sub = neg[np.ix_(subset, subset)]
            total += float(np.linalg.det(sub))
        C[l] = total
    return C


def _coeffs_via_wgraphs(g: ChainGraph, gm: GeneratorMatrix, cap: int) -> np.ndarray:
    idx = gm.index
    L = gm.matrix
    C = np.zeros(g.n + 1)
    C[0] = 1.0
    for chosen, _total in _iter_assignments(g, cap):
        if not chosen:
            continue
        l = len(chosen)  # n - (number of sinks)
        log_prod = 0.0
        for t, h in chosen:
            log_prod += log(L[idx[t], idx[h]])
        C[l] += exp(log_prod)
    return C


def charpoly_identity_check(
    g: ChainGraph, epsilon: float, cap: int = DEFAULT_ENUMERATION_CAP
) -> CharpolyReport:
    """Compare both computations of the characteristic coefficients.

    The matrix side sums principal minors at every size (cancellation-free,
    hence numerically stable at moderate epsilon); its 2^n determinants cost
    about as much as the combinatorial side, which sums rate products over
    the in-forests the capped enumeration yields; a chain over the cap is
    refused first.  An arc whose rate underflows to zero at this epsilon is
    refused with ``GraphError``.  Relative residuals cover l = 1 .. n-1;
    the t^0 coefficient is reported on its own since it must vanish.
    """
    _check_cap(g, cap)
    gm = generator_matrix(g, epsilon)
    idx = gm.index
    for a in g.arcs:
        if gm.matrix[idx[a.tail], idx[a.head]] == 0.0:
            raise GraphError(
                f"arc {a.tail!r}->{a.head!r} has rate 0.0 at epsilon={gm.epsilon!r}, "
                "so the coefficient identity cannot be checked; use a larger epsilon"
            )
    n = g.n
    cw = _coeffs_via_wgraphs(g, gm, cap)
    cm = _coeffs_via_minors(gm.matrix)
    residuals = []
    for l in range(1, n):
        denom = max(abs(cw[l]), np.finfo(float).tiny)
        residuals.append(abs(cm[l] - cw[l]) / denom)
    return CharpolyReport(
        epsilon=float(epsilon),
        coeff_matrix=tuple(float(x) for x in cm[1:]),
        coeff_wgraphs=tuple(float(x) for x in cw[1:]),
        rel_residuals=tuple(residuals),
        max_rel_residual=max(residuals) if residuals else 0.0,
        t0_coefficient=float(cm[n]),
    )
