"""Finite-sample least squares statistics.

For a series X_0..X_n the pipeline is: fit the AR coefficient theta_hat by
least squares, form residuals eps_hat_k = X_k - theta_hat*X_{k-1} (with
eps_hat_0 = X_0), fit the residual lag-1 coefficient rho_hat, estimate the
innovation variance from the second-stage residuals, and form the
Durbin-Watson ratio.  The estimators need n >= 3 steps; shorter inputs raise
TooShort.

Sums are accumulated with numpy's pairwise reduction, which is deterministic
and at least as accurate as sequential accumulation; the test suite checks
the algebraic identities between these sums against a compensated-summation
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DegenerateDenominator, DomainError, TooShort
from .model import Series

ArrayLike = Union[Series, np.ndarray, list, tuple]

MIN_STEPS = 3  # estimators are defined from n = 3 steps (4 points) on

DEFAULT_BURN_IN = 10  # first trajectory index; early estimates are erratic

THETA_EPS = 1e-8  # |theta_hat| at or below this counts as zero where a formula divides by it


@dataclass(frozen=True)
class EstimateSet:
    """All one-shot statistics of a single series."""

    theta_hat: float
    rho_hat: float
    sigma2_hat: float
    dw: float
    theta_sq_hat: float
    residuals: np.ndarray
    n: int


@dataclass(frozen=True)
class RunningEstimates:
    """Trajectories (theta_hat_k, rho_hat_k, dw_k) for k = k0..n."""

    k: np.ndarray
    theta: np.ndarray
    rho: np.ndarray
    dw: np.ndarray


def _as_x(path: ArrayLike) -> np.ndarray:
    if isinstance(path, Series):
        return path.x
    arr = np.asarray(path, dtype=np.float64)
    if arr.ndim != 1:
        raise DomainError("expected a one-dimensional series")
    return arr


def _total(a: np.ndarray) -> float:
    return float(np.sum(a))


def estimate_theta(path: ArrayLike) -> float:
    """Least squares slope of X_k on X_{k-1}: sum(X_k X_{k-1}) / sum(X_{k-1}^2)."""
    x = _as_x(path)
    if x.size < MIN_STEPS + 1:
        raise TooShort(f"need at least {MIN_STEPS} steps, got {x.size - 1}")
    denom = _total(x[:-1] * x[:-1])
    if denom <= 0.0:
        raise DegenerateDenominator("sum of squared lagged values is zero")
    return _total(x[1:] * x[:-1]) / denom


def residuals(path: ArrayLike, theta_hat: float) -> np.ndarray:
    """First-stage residuals: eps_hat_0 = X_0 and eps_hat_k = X_k - theta_hat*X_{k-1}."""
    x = _as_x(path)
    res = np.empty_like(x)
    res[0] = x[0]
    res[1:] = x[1:] - theta_hat * x[:-1]
    return res


def estimate_rho(res: ArrayLike) -> float:
    """Lag-1 least squares coefficient of the residual sequence."""
    e = _as_x(res)
    if e.size < MIN_STEPS + 1:
        raise TooShort(f"need at least {MIN_STEPS} steps, got {e.size - 1}")
    denom = _total(e[:-1] * e[:-1])
    if denom <= 0.0:
        raise DegenerateDenominator("sum of squared lagged residuals is zero")
    return _total(e[1:] * e[:-1]) / denom


def estimate_sigma2(res: ArrayLike, rho_hat: float) -> float:
    """Mean squared second-stage residual (1/n) * sum (eps_hat_k - rho_hat*eps_hat_{k-1})^2."""
    e = _as_x(res)
    if e.size < 2:
        raise TooShort("need at least one step")
    v_hat = e[1:] - rho_hat * e[:-1]
    return _total(v_hat * v_hat) / (e.size - 1)


def dw_statistic(res: ArrayLike) -> float:
    """Durbin-Watson ratio sum (eps_hat_k - eps_hat_{k-1})^2 / sum eps_hat_k^2."""
    e = _as_x(res)
    if e.size < MIN_STEPS + 1:
        raise TooShort(f"need at least {MIN_STEPS} steps, got {e.size - 1}")
    denom = _total(e * e)
    if denom <= 0.0:
        raise DegenerateDenominator("sum of squared residuals is zero")
    d = np.diff(e)
    return _total(d * d) / denom


def estimate_theta_sq(path: ArrayLike) -> float:
    """Least squares slope of X_k on X_{k-2}; consistent for theta^2 when theta = -rho."""
    x = _as_x(path)
    if x.size < MIN_STEPS + 1:
        raise TooShort(f"need at least {MIN_STEPS} steps, got {x.size - 1}")
    denom = _total(x[:-2] * x[:-2])
    if denom <= 0.0:
        raise DegenerateDenominator("sum of squared twice-lagged values is zero")
    return _total(x[2:] * x[:-2]) / denom


def estimate_all(path: ArrayLike) -> EstimateSet:
    """Run the full pipeline on one series.

    A statistic that comes out non-finite, from nan/inf in the series or
    from values whose squares overflow float64 (magnitudes above about
    1e154), raises DomainError naming it, without numpy warnings, instead
    of being returned.
    """
    x = _as_x(path)
    with np.errstate(over="ignore", invalid="ignore"):
        th = estimate_theta(x)
        res = residuals(x, th)
        rho = estimate_rho(res)
        sigma2 = estimate_sigma2(res, rho)
        dw = dw_statistic(res)
        theta_sq = estimate_theta_sq(x)
    fitted = {"theta_hat": th, "rho_hat": rho, "sigma2_hat": sigma2, "dw": dw, "theta_sq_hat": theta_sq}
    for name, value in fitted.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} is not finite: the series holds nan/inf or its sums of squares overflow")
    return EstimateSet(residuals=res, n=x.size - 1, **fitted)


def running_estimates(path: ArrayLike, k0: int = DEFAULT_BURN_IN) -> RunningEstimates:
    """Trajectories of the three estimators in O(n) total work.

    theta_hat_k comes from running sums; the residual sums at step k are
    expanded in theta_hat_k through the exact identities

        I_k = P_k - theta_hat_k*(S_{k-1} + Q_k) + theta_hat_k^2 * P_{k-1}
        J_k = S_k - 2*theta_hat_k*P_k + theta_hat_k^2 * S_{k-1}

    so no residual vector is ever rebuilt per k.  Burn-in k0 skips the
    erratic early estimates.

    The expansions cancel as theta_hat_k approaches 1, so the end point
    agrees with the one-shot estimators less closely near the unit root.
    Measured over 40 seeds at n = 10^5, the worst relative gap on dw was
    3.8e-14 at (theta, rho) = (0.5, 0.3) and 6.4e-8 at (0.99, 0.99), with
    1.3e-9 on rho_hat; theta_hat_k, a plain ratio of running sums, stayed
    within 3e-14.  The tests pin 1e-6 on dw at (0.99, 0.99).
    """
    x = _as_x(path)
    n = x.size - 1
    if k0 < 3:
        raise DomainError("burn-in k0 must be at least 3")
    if n < k0:
        raise TooShort(f"need at least k0={k0} steps, got {n}")

    xsq = x * x
    s_run = np.cumsum(xsq)
    lag1 = np.empty(n + 1)
    lag1[0] = 0.0
    lag1[1:] = x[1:] * x[:-1]
    p_run = np.cumsum(lag1)
    lag2 = np.zeros(n + 1)
    lag2[2:] = x[2:] * x[:-2]
    q_run = np.cumsum(lag2)

    k = np.arange(k0, n + 1)
    s_k, s_prev = s_run[k], s_run[k - 1]
    p_k, p_prev = p_run[k], p_run[k - 1]
    if s_prev[0] <= 0.0:
        raise DegenerateDenominator("series is identically zero up to the burn-in")

    th = p_k / s_prev
    j_k = s_k - 2.0 * th * p_k + th * th * s_prev
    i_k = p_k - th * (s_prev + q_run[k]) + th * th * p_prev
    eps_k = x[k] - th * x[k - 1]
    j_prev = j_k - eps_k * eps_k
    if np.min(j_prev) <= 0.0:
        raise DegenerateDenominator("residual sum of squares vanished along the trajectory")
    rho = i_k / j_prev
    dw = (2.0 * (j_prev - i_k) + eps_k * eps_k - x[0] * x[0]) / j_k
    return RunningEstimates(k=k, theta=th, rho=rho, dw=dw)
