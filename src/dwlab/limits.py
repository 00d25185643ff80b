"""Closed-form asymptotic limits and variances.

Every function here is an exact rational expression in (theta, rho, sigma2);
the Monte Carlo harness compares simulations against these values.  Inputs
must lie strictly inside the stability region, with a small safety margin so
the denominators (1 - theta*rho), (1 - theta^2), (1 - rho^2) stay well
conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import DEFAULT_SIGMA2
from .errors import OutOfRegion

# Stay clear of the |theta| = 1 boundary; see check_region.
REGION_MARGIN = 1e-9


def check_region(theta: float, rho: float) -> None:
    """Reject |theta| or |rho| >= 1 - 1e-9 (ill-conditioned denominators)."""
    bound = 1.0 - REGION_MARGIN
    if not (abs(theta) < bound):
        raise OutOfRegion("theta")
    if not (abs(rho) < bound):
        raise OutOfRegion("rho")


def check_sigma2(sigma2: float) -> None:
    """Raise OutOfRegion unless the noise variance sigma2 is positive and finite."""
    if not (sigma2 > 0.0) or not math.isfinite(sigma2):
        raise OutOfRegion("sigma2", "noise variance must be positive and finite")


def theta_star(theta: float, rho: float) -> float:
    """Almost-sure limit (theta + rho) / (1 + theta*rho) of the AR estimator.

    Equals theta exactly when rho = 0; any serial correlation biases the
    least squares estimator toward this value instead of theta.
    """
    check_region(theta, rho)
    return (theta + rho) / (1.0 + theta * rho)


def rho_star(theta: float, rho: float) -> float:
    """Almost-sure limit theta*rho*(theta + rho) / (1 + theta*rho) of the serial correlation estimator."""
    check_region(theta, rho)
    return theta * rho * (theta + rho) / (1.0 + theta * rho)


def d_star(theta: float, rho: float) -> float:
    """Almost-sure limit 2*(1 - rho_star) of the Durbin-Watson statistic."""
    return 2.0 * (1.0 - rho_star(theta, rho))


def power(x, p: int):
    """x ** p rounded as the C library's pow rounds, which Python's ** on a float calls and numpy's ** on an array may not."""
    if type(x) is float:
        return x ** p
    import numpy as np  # loaded already by whoever built the array; this module starts without it
    return np.float_power(x, p)


def var_theta_core(theta: float, rho: float) -> float:
    """var_theta without the region check, for plug-in points that may leave the region; per value of arrays too."""
    tr = theta * rho
    return (1.0 - theta * theta) * (1.0 - tr) * (1.0 - rho * rho) / power(1.0 + tr, 3)


def var_rho_core(theta: float, rho: float) -> float:
    """var_rho without the region check, for plug-in points that may leave the region; per value of arrays too."""
    tr = theta * rho
    core = power(theta + rho, 2) * power(1.0 + tr, 2) + tr * tr * (1.0 - theta * theta) * (1.0 - rho * rho)
    return (1.0 - tr) / power(1.0 + tr, 3) * core


def var_theta(theta: float, rho: float) -> float:
    """Asymptotic variance of sqrt(n)*(theta_hat - theta_star)."""
    check_region(theta, rho)
    return var_theta_core(theta, rho)


def var_rho(theta: float, rho: float) -> float:
    """Asymptotic variance of sqrt(n)*(rho_hat - rho_star)."""
    check_region(theta, rho)
    return var_rho_core(theta, rho)


def var_d(theta: float, rho: float) -> float:
    """Asymptotic variance of sqrt(n)*(dw - d_star); equals 4*var_rho."""
    return 4.0 * var_rho(theta, rho)


def gamma_matrix(theta: float, rho: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """Joint asymptotic covariance of sqrt(n)*(theta_hat - theta_star, rho_hat - rho_star), as rows of floats.

    Positive semidefinite; singular exactly on the critical line theta = -rho.
    A tuple, not an array, so that this module needs no numpy.
    """
    vt = var_theta(theta, rho)
    vr = var_rho(theta, rho)
    off = theta * rho * vt
    return ((vt, off), (off, vr))


def ell(theta: float, rho: float, sigma2: float) -> float:
    """Almost-sure limit of (1/n) * sum X_k^2."""
    check_region(theta, rho)
    check_sigma2(sigma2)
    tr = theta * rho
    return sigma2 * (1.0 + tr) / ((1.0 - theta * theta) * (1.0 - tr) * (1.0 - rho * rho))


def ell1(theta: float, rho: float, sigma2: float) -> float:
    """Almost-sure limit of (1/n) * sum X_k X_{k-1}; equals theta_star * ell."""
    return theta_star(theta, rho) * ell(theta, rho, sigma2)


def ell2(theta: float, rho: float, sigma2: float) -> float:
    """Almost-sure limit of (1/n) * sum X_k X_{k-2}."""
    check_region(theta, rho)
    check_sigma2(sigma2)
    tr = theta * rho
    return sigma2 * ((theta + rho) ** 2 - tr * (1.0 + tr)) / (
        (1.0 - theta * theta) * (1.0 - tr) * (1.0 - rho * rho)
    )


def sigma_hat_limit(theta: float, rho: float, sigma2: float) -> float:
    """Almost-sure limit of the two-stage residual variance estimator.

    Equals sigma2 exactly when theta*rho = 0, linear in sigma2 always.
    """
    check_region(theta, rho)
    check_sigma2(sigma2)
    tr = theta * rho
    return sigma2 * ((1.0 + tr) ** 2 - tr * tr * (theta + rho) ** 2) / ((1.0 - tr) * (1.0 + tr) ** 3)


@dataclass(frozen=True)
class AsymptoticSet:
    """All closed-form limits for one parameter point, as emitted by the CLI; ``gamma`` is the tuple of :func:`gamma_matrix`."""

    theta_star: float
    rho_star: float
    d_star: float
    var_theta: float
    var_rho: float
    var_d: float
    gamma: tuple[tuple[float, float], tuple[float, float]]
    ell: float
    ell1: float
    ell2: float
    sigma_hat_limit: float


def asymptotics(theta: float, rho: float, sigma2: float = DEFAULT_SIGMA2) -> AsymptoticSet:
    """Evaluate every limit at (theta, rho, sigma2)."""
    return AsymptoticSet(
        theta_star=theta_star(theta, rho),
        rho_star=rho_star(theta, rho),
        d_star=d_star(theta, rho),
        var_theta=var_theta(theta, rho),
        var_rho=var_rho(theta, rho),
        var_d=var_d(theta, rho),
        gamma=gamma_matrix(theta, rho),
        ell=ell(theta, rho, sigma2),
        ell1=ell1(theta, rho, sigma2),
        ell2=ell2(theta, rho, sigma2),
        sigma_hat_limit=sigma_hat_limit(theta, rho, sigma2),
    )
