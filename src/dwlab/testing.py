"""Bilateral chi-square tests built on the Durbin-Watson statistic.

Three procedures are available, all rejecting for large values against the
(1 - alpha) quantile of a chi-square law with one degree of freedom:

* ``critical_case_test``  H0: theta = -rho, the configuration on which the
  joint covariance of the estimators is singular;
* ``rho_test``            H0: rho = rho0 for a general |rho0| < 1;
* ``rho_zero_test``       H0: rho = 0, the classical no-autocorrelation test.

``auto_test`` chains them: it first tests theta = -rho and then dispatches to
the variant that remains valid on the accepted branch.

Every statistic is a closed-form function of one ``EstimateSet``, the floats
of one series' fit or the arrays of a block's: each test fits the path once
with ``estimate_all``, ``auto_test`` shares that fit between its two stages,
and the Monte Carlo engine tests a block on one fit, each row to the bit as
its series alone (every power goes through :func:`limits.power` for that).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import limits
from .dist import chi2_quantile1, chi2_sf1
from .errors import DegenerateStatistic, DegenerateTau, DegenerateTheta, DomainError
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
    """Plug-in quantities of the general rho = rho0 statistic; for a block, arrays along its rows' axis.

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
    gamma_hat: tuple[tuple[float, float], tuple[float, float]]
    tau2: float


@dataclass(frozen=True)
class AutoOutcome:
    """Outcome of the two-stage procedure: preliminary critical-case test, then dispatch."""

    preliminary: TestOutcome
    final: TestOutcome
    weights: Optional[TestWeights]
    branch: str  # "critical" when theta = -rho was accepted, else "general"


def check_alpha(alpha: float) -> None:
    """Raise unless the significance level alpha lies in (0, 1)."""
    if not (0.0 < alpha < 1.0):
        raise DomainError("significance level must satisfy 0 < alpha < 1")


def check_rho0(rho0: Optional[float]) -> None:
    """Raise unless the null value rho0 is given and lies in (-1, 1)."""
    if rho0 is None:
        raise DomainError("test kind 'rho0' needs a rho0 value")
    if not (abs(rho0) < 1.0):
        raise DomainError("rho0 must lie in (-1, 1)")


def _outcome(statistic: float, alpha: float, kind: str) -> TestOutcome:
    statistic = float(statistic)
    threshold = chi2_quantile1(1.0 - alpha)
    return TestOutcome(
        statistic=statistic,
        threshold=threshold,
        alpha=alpha,
        reject=statistic > threshold,
        p_value=chi2_sf1(statistic),
        kind=kind,
    )


def _finite(value, what: str):
    """``value``, unless one of its values is nan or infinite: then DomainError naming ``what``."""
    if not np.isfinite(value).all():
        raise DomainError(f"{what} is not finite")
    return value


def critical_statistic(n: int, dw: float, theta_sq: float) -> float:
    """n*(1 - t)/(4 t^2 (1 + t)) * (dw - 2)^2 with t the theta^2 plug-in."""
    t = np.asarray(theta_sq)
    outside = t[~((0.0 < t) & (t < 1.0))]
    if outside.size:
        raise DegenerateStatistic(
            f"theta^2 plug-in {outside[0]:.6g} outside (0, 1); statistic leaves the chi-square regime"
        )
    with np.errstate(all="ignore"):  # t^2 may underflow to zero
        stat = n * (1.0 - t) / (4.0 * t * t * (1.0 + t)) * limits.power(dw - 2.0, 2)
    return _finite(stat, "critical-case statistic")


def zero_statistic(n: int, dw: float, theta_hat: float) -> float:
    """n/(4 theta_hat^2) * (dw - 2)^2."""
    if (np.abs(theta_hat) <= THETA_EPS).any():
        raise DegenerateTheta("rho = 0 test is undefined when the AR coefficient vanishes")
    with np.errstate(all="ignore"):
        stat = n / (4.0 * theta_hat * theta_hat) * limits.power(dw - 2.0, 2)
    return _finite(stat, "rho = 0 statistic")


def rho_weights(theta_hat: float, rho_hat: float, rho0: float) -> TestWeights:
    """Build the plug-in weights of the rho = rho0 statistic.

    The covariance plug-in is evaluated at (theta_tilde, rho0); for rho0 = 0
    it uses theta_hat instead, which collapses tau^2 to 4*theta_hat^2 and
    makes the statistic coincide with the dedicated rho = 0 test.  Its
    entries are the asymptotic variances of :mod:`dwlab.limits` without the
    region check, because theta_tilde may leave the region and overflow them.
    """
    check_rho0(rho0)
    theta_hat = np.asarray(theta_hat)
    with np.errstate(all="ignore"):
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
        quad = a_w * a_w * alpha_hat + 2.0 * a_w * b_w * off + b_w * b_w * beta_hat
        tau2 = _finite(4.0 / limits.power(1.0 + rt, 2) * quad, "rho = rho0 variance plug-in tau^2")
    if (tau2 <= TAU_EPS).any():
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
        gamma_hat=((alpha_hat, off), (off, beta_hat)),
        tau2=tau2,
    )


def rho_statistic(est: EstimateSet, rho0: float) -> tuple[float, TestWeights]:
    """n/tau^2 * (dw - d_tilde)^2, the rho = rho0 statistic of a fit, with its plug-in weights."""
    w = rho_weights(est.theta_hat, est.rho_hat, rho0)
    with np.errstate(all="ignore"):
        stat = est.n / w.tau2 * limits.power(est.dw - w.d_tilde, 2)
    return _finite(stat, "rho = rho0 statistic"), w


def critical_case_test(path: ArrayLike, alpha: float) -> TestOutcome:
    """Test H0: theta = -rho via the lag-2 regression plug-in."""
    check_alpha(alpha)
    est = estimate_all(path)
    return _outcome(critical_statistic(est.n, est.dw, est.theta_sq_hat), alpha, KIND_CRITICAL)


def rho_test(path: ArrayLike, rho0: float, alpha: float) -> tuple[TestOutcome, TestWeights]:
    """Test H0: rho = rho0; needs theta != -rho and theta != rho0 to be informative."""
    check_alpha(alpha)
    check_rho0(rho0)
    stat, weights = rho_statistic(estimate_all(path), rho0)
    return _outcome(stat, alpha, KIND_RHO0), weights


def rho_zero_test(path: ArrayLike, alpha: float) -> TestOutcome:
    """Test H0: rho = 0 (residuals not autocorrelated)."""
    check_alpha(alpha)
    est = estimate_all(path)
    return _outcome(zero_statistic(est.n, est.dw, est.theta_hat), alpha, KIND_ZERO)


def auto_test(path: ArrayLike, rho0: float, alpha: float) -> AutoOutcome:
    """Preliminary critical-case test, then the appropriate rho = rho0 test.

    If theta = -rho is accepted the general statistic would degenerate, so
    the rho0 hypothesis is tested with rho0^2 substituted for the theta^2
    plug-in of the critical-case statistic, which rho0 = 0 leaves undefined;
    otherwise the general quadratic form applies.  Both stages use the same
    fit of the path.
    """
    check_alpha(alpha)
    check_rho0(rho0)
    est = estimate_all(path)
    preliminary = _outcome(critical_statistic(est.n, est.dw, est.theta_sq_hat), alpha, KIND_CRITICAL)
    if preliminary.reject:
        stat, weights = rho_statistic(est, rho0)
    elif rho0 == 0.0:
        raise DegenerateStatistic("theta = -rho accepted: the rho = rho0 test is undefined at rho0 = 0")
    else:
        stat, weights = critical_statistic(est.n, est.dw, rho0 * rho0), None
    branch = "general" if preliminary.reject else "critical"
    return AutoOutcome(preliminary=preliminary, final=_outcome(stat, alpha, KIND_RHO0), weights=weights, branch=branch)
