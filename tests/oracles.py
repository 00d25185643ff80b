"""Independent oracles used across the test suite.

Closed-form values are recomputed in exact rational arithmetic (Fraction),
sums are recomputed with compensated summation (math.fsum), so every check
compares the float64 implementation against an arithmetic path it does not
share.  The one exception, :func:`prefix_estimate`, is the whole-prefix lil
refit through the one-shot estimators, which the chunked
``estimators.prefix_estimates`` must match bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from dwlab.estimators import dw_statistic, estimate_rho, estimate_theta, residuals


def rel_close(a: float, b: float, tol: float) -> bool:
    """|a - b| <= tol * max(1, |a|, |b|)."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def dot_fsum(a, b) -> float:
    """Compensated dot product."""
    return math.fsum(float(x) * float(y) for x, y in zip(a, b))


def sum_fsum(a) -> float:
    return math.fsum(float(x) for x in a)


# --- exact rational mirrors of the closed forms -----------------------------


def F(x) -> Fraction:
    return Fraction(x)


def theta_star_frac(theta, rho) -> Fraction:
    t, r = F(theta), F(rho)
    return (t + r) / (1 + t * r)


def rho_star_frac(theta, rho) -> Fraction:
    t, r = F(theta), F(rho)
    return t * r * (t + r) / (1 + t * r)


def d_star_frac(theta, rho) -> Fraction:
    return 2 * (1 - rho_star_frac(theta, rho))


def var_theta_frac(theta, rho) -> Fraction:
    t, r = F(theta), F(rho)
    return (1 - t * t) * (1 - t * r) * (1 - r * r) / (1 + t * r) ** 3


def var_rho_frac(theta, rho) -> Fraction:
    t, r = F(theta), F(rho)
    tr = t * r
    core = (t + r) ** 2 * (1 + tr) ** 2 + tr * tr * (1 - t * t) * (1 - r * r)
    return (1 - tr) / (1 + tr) ** 3 * core


def gamma_frac(theta, rho):
    vt = var_theta_frac(theta, rho)
    vr = var_rho_frac(theta, rho)
    off = F(theta) * F(rho) * vt
    return ((vt, off), (off, vr))


def gamma_det_frac(theta, rho) -> Fraction:
    (vt, off), (_, vr) = gamma_frac(theta, rho)
    return vt * vr - off * off


def ell_frac(theta, rho, sigma2) -> Fraction:
    t, r, s = F(theta), F(rho), F(sigma2)
    return s * (1 + t * r) / ((1 - t * t) * (1 - t * r) * (1 - r * r))


def ell1_frac(theta, rho, sigma2) -> Fraction:
    return theta_star_frac(theta, rho) * ell_frac(theta, rho, sigma2)


def ell2_frac(theta, rho, sigma2) -> Fraction:
    t, r, s = F(theta), F(rho), F(sigma2)
    tr = t * r
    return s * ((t + r) ** 2 - tr * (1 + tr)) / ((1 - t * t) * (1 - tr) * (1 - r * r))


def sigma_hat_limit_frac(theta, rho, sigma2) -> Fraction:
    t, r, s = F(theta), F(rho), F(sigma2)
    tr = t * r
    return s * ((1 + tr) ** 2 - tr * tr * (t + r) ** 2) / ((1 - tr) * (1 + tr) ** 3)


# --- brute-force estimator mirrors ------------------------------------------


def theta_hat_fsum(x) -> float:
    return dot_fsum(x[1:], x[:-1]) / dot_fsum(x[:-1], x[:-1])


def residuals_brute(x, theta_hat):
    x = np.asarray(x, dtype=np.float64)
    res = [float(x[0])]
    for k in range(1, x.size):
        res.append(float(x[k]) - theta_hat * float(x[k - 1]))
    return np.array(res)


def rho_hat_fsum(res) -> float:
    return dot_fsum(res[1:], res[:-1]) / dot_fsum(res[:-1], res[:-1])


def dw_fsum(res) -> float:
    diffs = [float(res[k]) - float(res[k - 1]) for k in range(1, len(res))]
    return math.fsum(d * d for d in diffs) / dot_fsum(res, res)


# --- the lil prefix refit as whole-prefix one-shot fits ---------------------


def prefix_estimate(x: np.ndarray, m: int, which: str) -> np.ndarray:
    """Statistic ``which`` of X_0..X_m, fitted on every row of a (B, n+1) block."""
    prefix = x[:, : m + 1]
    theta_hat = estimate_theta(prefix)
    if which == "theta":
        return theta_hat
    res = residuals(prefix, theta_hat)
    return estimate_rho(res) if which == "rho" else dw_statistic(res)
