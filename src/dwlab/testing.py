"""Bilateral chi-square tests built on the Durbin-Watson statistic.

Three procedures are available, all rejecting for large values against the
(1 - alpha) quantile of a chi-square law with one degree of freedom:

* ``critical_case_test``  H0: theta = -rho, the configuration on which the
  joint covariance of the estimators is singular;
* ``rho_test``            H0: rho = rho0 for a general |rho0| < 1;
* ``rho_zero_test``       H0: rho = 0, the classical no-autocorrelation test.

``auto_test`` chains them: it first tests theta = -rho and then dispatches to
the variant that remains valid on the accepted branch.

Every statistic is a closed-form function of one ``EstimateSet``: each test
fits the path once with ``estimate_all``, and ``auto_test`` shares that one
fit between its two stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import limits
from .dist import chi2_quantile1, chi2_sf1
from .errors import (
    DegenerateStatistic,
    DegenerateTau,
    DegenerateTheta,
    DomainError,
)
from .estimators import THETA_EPS, ArrayLike, EstimateSet, estimate_all

# Unused here; the benchmark's span tracer wraps these names on this module.
from .dist import chi2_cdf1  # noqa: F401
from .estimators import dw_statistic, estimate_rho, estimate_theta, estimate_theta_sq, residuals  # noqa: F401

TAU_EPS = 1e-12  # tau^2 below this signals a near-critical configuration

KIND_CRITICAL = "critical_case"
KIND_RHO0 = "rho_equals_rho0"
KIND_ZERO = "rho_equals_zero"


@dataclass(frozen=True)
class TestOutcome:
    """Result of one chi-square test at significance level alpha."""

    statistic: float
    threshold: float
    alpha: float
    reject: bool
    p_value: float
    kind: str


@dataclass(frozen=True)
class TestWeights:
    """Plug-in quantities of the general rho = rho0 statistic.

    ``theta_tilde`` re-centers the AR estimate under the null, ``rho_tilde``
    and ``d_tilde`` are the implied limits, (``a_w``, ``b_w``) is the weight
    vector of the quadratic form, ``gamma_hat`` the plug-in covariance and
    ``tau2`` the resulting variance of sqrt(n)*(dw - d_tilde).
    """

    a_w: float
    b_w: float
    theta_tilde: float
    rho_tilde: float
    d_tilde: float
    alpha_hat: float
    beta_hat: float
    gamma_hat: np.ndarray
    tau2: float


@dataclass(frozen=True)
class AutoOutcome:
    """Outcome of the two-stage procedure: preliminary critical-case test, then dispatch."""

    preliminary: TestOutcome
    final: TestOutcome
    weights: Optional[TestWeights]
    branch: str  # "critical" when theta = -rho was accepted, else "general"


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise DomainError("significance level must satisfy 0 < alpha < 1")


def _outcome(statistic: float, alpha: float, kind: str) -> TestOutcome:
    threshold = chi2_quantile1(1.0 - alpha)
    return TestOutcome(
        statistic=statistic,
        threshold=threshold,
        alpha=alpha,
        reject=statistic > threshold,
        p_value=chi2_sf1(statistic),
        kind=kind,
    )


def critical_statistic(n: int, dw: float, theta_sq: float) -> float:
    """n*(1 - t)/(4 t^2 (1 + t)) * (dw - 2)^2 with t the theta^2 plug-in."""
    if not (0.0 < theta_sq < 1.0):
        raise DegenerateStatistic(
            f"theta^2 plug-in {theta_sq:.6g} outside (0, 1); statistic leaves the chi-square regime"
        )
    return n * (1.0 - theta_sq) / (4.0 * theta_sq * theta_sq * (1.0 + theta_sq)) * (dw - 2.0) ** 2


def zero_statistic(n: int, dw: float, theta_hat: float) -> float:
    """n/(4 theta_hat^2) * (dw - 2)^2."""
    if abs(theta_hat) <= THETA_EPS:
        raise DegenerateTheta("rho = 0 test is undefined when the AR coefficient vanishes")
    return n / (4.0 * theta_hat * theta_hat) * (dw - 2.0) ** 2


def rho_weights(theta_hat: float, rho_hat: float, rho0: float) -> TestWeights:
    """Build the plug-in weights of the rho = rho0 statistic.

    The covariance plug-in is evaluated at (theta_tilde, rho0); for rho0 = 0
    it uses theta_hat instead, which collapses tau^2 to 4*theta_hat^2 and
    makes the statistic coincide with the dedicated rho = 0 test.  Its
    entries are the asymptotic variances of :mod:`dwlab.limits` without the
    region check, because theta_tilde may leave the region.
    """
    if not (abs(rho0) < 1.0):
        raise DomainError("rho0 must lie in (-1, 1)")
    theta_tilde = theta_hat + rho_hat - rho0
    rho_tilde = rho0 * theta_tilde * (theta_tilde + rho0) / (1.0 + rho0 * theta_tilde)
    d_tilde = 2.0 * (1.0 - rho_tilde)
    a_w = -rho0 * (2.0 * theta_hat + rho_hat - rho0)
    b_w = 1.0 - rho0 * theta_hat

    t = theta_hat if rho0 == 0.0 else theta_tilde
    rt = rho0 * t
    alpha_hat = limits.var_theta_core(t, rho0)
    beta_hat = limits.var_rho_core(t, rho0)
    off = rt * alpha_hat
    gamma_hat = np.array([[alpha_hat, off], [off, beta_hat]])
    quad = a_w * a_w * alpha_hat + 2.0 * a_w * b_w * off + b_w * b_w * beta_hat
    tau2 = 4.0 / (1.0 + rt) ** 2 * quad
    if tau2 <= TAU_EPS:
        raise DegenerateTau(
            "variance plug-in collapsed; configuration is close to theta = -rho, "
            "use the critical-case test instead"
        )
    return TestWeights(
        a_w=a_w,
        b_w=b_w,
        theta_tilde=theta_tilde,
        rho_tilde=rho_tilde,
        d_tilde=d_tilde,
        alpha_hat=alpha_hat,
        beta_hat=beta_hat,
        gamma_hat=gamma_hat,
        tau2=tau2,
    )


def _critical(est: EstimateSet, alpha: float) -> TestOutcome:
    stat = critical_statistic(est.n, est.dw, est.theta_sq_hat)
    return _outcome(stat, alpha, KIND_CRITICAL)


def _rho(est: EstimateSet, rho0: float, alpha: float) -> tuple[TestOutcome, TestWeights]:
    w = rho_weights(est.theta_hat, est.rho_hat, rho0)
    stat = est.n / w.tau2 * (est.dw - w.d_tilde) ** 2
    return _outcome(stat, alpha, KIND_RHO0), w


def critical_case_test(path: ArrayLike, alpha: float) -> TestOutcome:
    """Test H0: theta = -rho via the lag-2 regression plug-in."""
    _check_alpha(alpha)
    return _critical(estimate_all(path), alpha)


def rho_test(path: ArrayLike, rho0: float, alpha: float) -> tuple[TestOutcome, TestWeights]:
    """Test H0: rho = rho0; needs theta != -rho and theta != rho0 to be informative."""
    _check_alpha(alpha)
    return _rho(estimate_all(path), rho0, alpha)


def rho_zero_test(path: ArrayLike, alpha: float) -> TestOutcome:
    """Test H0: rho = 0 (residuals not autocorrelated)."""
    _check_alpha(alpha)
    est = estimate_all(path)
    return _outcome(zero_statistic(est.n, est.dw, est.theta_hat), alpha, KIND_ZERO)


def auto_test(path: ArrayLike, rho0: float, alpha: float) -> AutoOutcome:
    """Preliminary critical-case test, then the appropriate rho = rho0 test.

    If theta = -rho is accepted the general statistic would degenerate, so
    the rho0 hypothesis is tested with rho0^2 substituted for the theta^2
    plug-in of the critical-case statistic; otherwise the general quadratic
    form applies.  Both stages use the same fit of the path.
    """
    _check_alpha(alpha)
    est = estimate_all(path)
    preliminary = _critical(est, alpha)
    if not preliminary.reject:
        stat = critical_statistic(est.n, est.dw, rho0 * rho0)
        return AutoOutcome(
            preliminary=preliminary,
            final=_outcome(stat, alpha, KIND_RHO0),
            weights=None,
            branch="critical",
        )
    final, weights = _rho(est, rho0, alpha)
    return AutoOutcome(preliminary=preliminary, final=final, weights=weights, branch="general")
