"""Independent oracles used across the test suite.

Closed-form values are recomputed in exact rational arithmetic (Fraction),
sums are recomputed with compensated summation (math.fsum), so every check
compares the float64 implementation against an arithmetic path it does not
share.  :func:`bartlett_gamma` derives the limits and their covariance a
second way, from Bartlett's formula, so it also catches an error that a
formula and its exact transcription share.  Two exceptions mirror the
library's own code paths, which a faster kernel must match bit for bit:
:func:`prefix_estimate`, a whole-prefix fit through the one-statistic
estimators, for the fit kernel ``estimators.fit`` of the prefix
``x[..., :m + 1]``, as lil refits it; and :func:`estimate_all_reference`,
the one-statistic-at-a-time pipeline, for ``estimators.estimate_all``.
:func:`replicate_rows` is the Monte Carlo experiments' per-replicate loop
through the one-path API, which the blocked, forked runs must match.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from dwlab import montecarlo
from dwlab.errors import DomainError, TooShort
from dwlab.estimators import (
    DEFAULT_BURN_IN,
    EstimateSet,
    _as_block,
    _lagged,
    _total,
    dw_statistic,
    estimate_rho,
    estimate_theta,
    estimate_theta_sq,
    residuals,
    running_estimates,
)
from dwlab.model import simulate
from dwlab.testing import critical_case_test, rho_test, rho_zero_test


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


def bartlett_gamma(theta: float, rho: float) -> tuple:
    """(r1, r2, g(r1, r2), Gamma): the limits of theta_hat and rho_hat and their covariance, by Bartlett's formula.

    X is an AR(2) process with coefficients (theta + rho, -theta*rho), so
    theta_hat is its lag-1 sample autocorrelation, and rho_hat is
    g(r1, r2) = r1 (r1^2 - r2) / (1 - r1^2) of the lag-1 and lag-2 ones,
    both up to O(1/n) boundary terms.  Bartlett's formula (Brockwell & Davis,
    *Time Series: Theory and Methods*, 1991, Thm 7.2.1) gives the asymptotic
    covariance W of sqrt(n) (r1_hat, r2_hat) under iid noise with a finite
    fourth moment, and the delta method through (r1, g) gives Gamma.

    The sums stop at the lag L where max(|theta|, |rho|)^L < 1e-17.  The
    autocorrelations decay as L r^L at worst (a double root), each summand
    as the square of that, so the dropped tail is below 1e-25 of W's
    entries at |theta|, |rho| <= 0.95 (L = 764 there).
    """
    phi1, phi2 = theta + rho, -theta * rho
    root = max(abs(theta), abs(rho))
    lags = max(3, math.ceil(math.log(1e-17) / math.log(root))) if root > 0.0 else 3
    r = np.empty(lags + 3)  # the autocorrelations r(0..L+2) by the AR(2) recursion
    r[0], r[1] = 1.0, phi1 / (1.0 - phi2)
    for h in range(2, r.size):
        r[h] = phi1 * r[h - 1] + phi2 * r[h - 2]
    k = np.arange(1, lags + 1)
    # Bartlett: w_ij = sum_{k>=1} (r(k+i) + r(k-i) - 2 r(i) r(k)) (r(k+j) + r(k-j) - 2 r(j) r(k))
    terms = [r[k + i] + r[np.abs(k - i)] - 2.0 * r[i] * r[k] for i in (1, 2)]
    w = np.array([[np.dot(a, b) for b in terms] for a in terms])
    r1, r2 = r[1], r[2]
    g = r1 * (r1 * r1 - r2) / (1.0 - r1 * r1)
    dg_dr1 = ((3.0 * r1 * r1 - r2) * (1.0 - r1 * r1) + 2.0 * r1 * r1 * (r1 * r1 - r2)) / (1.0 - r1 * r1) ** 2
    dg_dr2 = -r1 / (1.0 - r1 * r1)
    jac = np.array([[1.0, 0.0], [dg_dr1, dg_dr2]])
    return float(r1), float(r2), float(g), jac @ w @ jac.T


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


def prefix_estimate(x: np.ndarray, m: int, name: str) -> np.ndarray:
    """Statistic ``name`` (from ESTIMATES) of X_0..X_m, fitted on every row of a (B, n+1) block.

    The one-statistic functions run in ``estimate_all``'s order, theta_hat
    first, so a vanishing denominator raises what that pipeline raises first.
    """
    prefix = x[:, : m + 1]
    theta_hat = estimate_theta(prefix)
    if name in ("theta_hat", "theta_sq_hat"):
        return theta_hat if name == "theta_hat" else estimate_theta_sq(prefix)
    res = residuals(prefix, theta_hat)
    if name == "dw":
        return dw_statistic(res)
    rho_hat = estimate_rho(res)
    return rho_hat if name == "rho_hat" else estimate_sigma2(res, rho_hat)


# --- estimate_all as the six one-statistic functions in turn ---------------


def estimate_sigma2(res, rho_hat: float) -> float:
    """Mean squared second-stage residual (1/n) * sum (eps_hat_k - rho_hat*eps_hat_{k-1})^2."""
    e = _as_block(res)
    if e.shape[-1] < 2:
        raise TooShort("need at least one step")
    v_hat = e[..., 1:] - _lagged(rho_hat) * e[..., :-1]
    return _total(v_hat * v_hat) / (e.shape[-1] - 1)


def estimate_all_reference(path) -> EstimateSet:
    """``estimators.estimate_all`` as it was before its fused kernel, verbatim."""
    x = _as_block(path)
    with np.errstate(over="ignore", invalid="ignore"):
        th = estimate_theta(x)
        res = residuals(x, th)
        rho = estimate_rho(res)
        sigma2 = estimate_sigma2(res, rho)
        dw = dw_statistic(res)
        theta_sq = estimate_theta_sq(x)
    fitted = {"theta_hat": th, "rho_hat": rho, "sigma2_hat": sigma2, "dw": dw, "theta_sq_hat": theta_sq}
    for name, value in fitted.items():
        if not np.all(np.isfinite(value)):
            raise DomainError(f"{name} is not finite: the series holds nan/inf or its sums of squares overflow")
    return EstimateSet(n=x.shape[-1] - 1, **fitted)


# --- the Monte Carlo experiments, one replicate at a time -------------------


def replicate_rows(experiment, cfg, rho0=None, which="theta", checkpoints=()):
    """The per-replicate loop: each path simulated and fitted on its own through the one-path API.

    ``experiment`` is clt, a test kind (zero, rho0, critical), qsl or lil;
    the rows are those of the experiment's report and ``--csv`` dump (qsl's
    as bare floats).
    """
    targets = montecarlo._asymptotic_targets(cfg)
    limit = targets[montecarlo._STATISTICS[which][1]]
    rows = []
    for i in range(cfg.replicates):
        x = simulate(cfg.params, cfg.noise, cfg.n, montecarlo.derive_seed(cfg.base_seed, i)).x
        if experiment == "clt":
            est = estimate_all_reference(x)
            rows.append((est.theta_hat, est.rho_hat, est.sigma2_hat, est.dw, est.theta_sq_hat))
        elif experiment in ("zero", "critical", "rho0"):
            if experiment == "zero":
                outcome = rho_zero_test(x, cfg.alpha)
            elif experiment == "critical":
                outcome = critical_case_test(x, cfg.alpha)
            else:
                outcome, _ = rho_test(x, rho0, cfg.alpha)
            rows.append((outcome.statistic, int(outcome.reject)))
        elif experiment == "qsl":
            track = getattr(running_estimates(x, k0=DEFAULT_BURN_IN), which)
            rows.append(float(np.sum((track - limit) ** 2) / math.log(cfg.n)))
        else:  # lil
            devs = []
            for m in checkpoints:
                prefix = x[: m + 1]
                th = estimate_theta(prefix)
                res = residuals(prefix, th)
                value = {"theta": th, "rho": estimate_rho(res), "dw": dw_statistic(res)}[which]
                devs.append(montecarlo.lil_deviation(value, limit, m))
            rows.append(devs)
    return rows
