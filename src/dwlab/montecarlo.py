"""Monte Carlo verification engine.

Replicates simulations under a deterministic per-replicate seed derivation,
then checks the distributional claims at desk scale: almost-sure limits,
central limit behavior (marginal and joint), test size and power, the
quadratic strong law of the running estimators, and an envelope version of
the law of iterated logarithm.

Replicate i always uses seed ``derive_seed(base_seed, i)``, so reports are
bit-identical whatever the degree of parallelism.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import limits
from .dist import ks_statistic, normal_cdf
from .errors import DomainError
from .estimators import (
    estimate_all,
    estimate_rho,
    estimate_theta,
    dw_statistic,
    residuals,
    running_estimates,
)
from .model import _MASK64, ModelParams, NoiseSpec, check_seed, simulate
from .testing import critical_case_test, rho_test, rho_zero_test

_GOLDEN_GAMMA = 0x9E3779B97F4A7C15

# Tolerances used by the verification experiments, echoed in every report.
KS_TOLERANCE = 0.05
COV_REL_TOLERANCE = 0.10
COV_ABS_TOLERANCE = 0.05
QSL_REL_TOLERANCE = 0.30
SIZE_BAND_SIGMAS = 3.0
LIL_SD_MULTIPLE = 3.0
LIL_MAX_FRACTION = 0.05

QSL_BURN_IN = 10  # matches the trajectory default; see decision notes

LIL_NOTE = (
    "envelope check at fixed sample sizes; the limsup characterization of the "
    "law of iterated logarithm is not observable at finite n"
)

STATS = ("theta", "rho", "dw")

# Target keys (almost-sure limit, asymptotic variance) of each running statistic.
_TARGET_KEYS = {"theta": ("theta_star", "var_theta"), "rho": ("rho_star", "var_rho"), "dw": ("d_star", "var_d")}


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(base_seed: int, index: int) -> int:
    """Seed of replicate ``index``: output index+1 of a SplitMix64 stream.

    SplitMix64 advances by the odd constant 0x9E3779B97F4A7C15 and applies a
    bijective mix, so distinct indices can never collide for a fixed base
    seed.
    """
    if index < 0:
        raise DomainError("replicate index must be nonnegative")
    return _mix64((base_seed + (index + 1) * _GOLDEN_GAMMA) & _MASK64)


@dataclass(frozen=True)
class McConfig:
    """One verification experiment: model point, noise, scale and level."""

    params: ModelParams
    noise: NoiseSpec
    n: int
    replicates: int
    base_seed: int
    alpha: float = 0.05

    def __post_init__(self):
        check_seed(self.base_seed)
        if self.replicates < 1:
            raise DomainError("need at least one replicate")
        if self.n < 100:
            raise DomainError("verification runs need n >= 100")
        if not (0.0 < self.alpha < 1.0):
            raise DomainError("alpha must lie in (0, 1)")


@dataclass
class McReport:
    """Everything one experiment produced, in JSON-ready plain types."""

    experiment: str
    theta: float
    rho: float
    sigma2: float
    noise: str
    n: int
    replicates: int
    base_seed: int
    alpha: float
    targets: dict
    tolerances: dict
    estimates: Optional[dict] = None
    standardized: Optional[dict] = None
    ks: Optional[dict] = None
    sample_cov: Optional[list] = None
    rejection_rate: Optional[float] = None
    test_kind: Optional[str] = None
    rho0: Optional[float] = None
    test_statistics: Optional[list] = None
    rejections: Optional[list] = None
    qsl: Optional[dict] = None
    lil: Optional[dict] = None
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


def _base_report(experiment: str, cfg: McConfig, targets: dict, tolerances: dict) -> McReport:
    return McReport(
        experiment=experiment,
        theta=cfg.params.theta,
        rho=cfg.params.rho,
        sigma2=cfg.params.sigma2,
        noise=cfg.noise.kind,
        n=cfg.n,
        replicates=cfg.replicates,
        base_seed=cfg.base_seed,
        alpha=cfg.alpha,
        targets=targets,
        tolerances=tolerances,
    )


def _map_replicates(func: Callable[[int], tuple], cfg: McConfig, threads: int) -> list:
    """Apply func to every replicate index, preserving index order.

    Each replicate is an independent deterministic computation, so the
    result does not depend on the number of worker threads.  Replicate 0
    runs on the calling thread, so the first ``simulate`` call, which
    imports scipy.signal, never runs in a pool worker (see :mod:`dwlab.model`).
    """
    results = [func(0)]
    rest = range(1, cfg.replicates)
    if threads <= 1:
        results.extend(map(func, rest))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results.extend(pool.map(func, rest))
    return results


def _asymptotic_targets(cfg: McConfig) -> dict:
    theta, rho = cfg.params.theta, cfg.params.rho
    return {
        "theta_star": limits.theta_star(theta, rho),
        "rho_star": limits.rho_star(theta, rho),
        "d_star": limits.d_star(theta, rho),
        "var_theta": limits.var_theta(theta, rho),
        "var_rho": limits.var_rho(theta, rho),
        "var_d": limits.var_d(theta, rho),
        "gamma": limits.gamma_matrix(theta, rho).tolist(),
    }


def run_replications(cfg: McConfig, threads: int = 1) -> McReport:
    """Estimate every replicate and compare the standardized laws to normality.

    The report carries per-replicate estimates, the standardized statistics
    sqrt(n)*(estimate - limit)/sd where the asymptotic sd is positive, their
    KS distances against the standard normal CDF, and the sample covariance
    of sqrt(n)*(theta_hat - theta_star, rho_hat - rho_star).
    """

    def one(i: int) -> tuple:
        series = simulate(cfg.params, cfg.noise, cfg.n, derive_seed(cfg.base_seed, i))
        est = estimate_all(series.x)
        return est.theta_hat, est.rho_hat, est.sigma2_hat, est.dw, est.theta_sq_hat

    rows = _map_replicates(one, cfg, threads)
    theta_hat, rho_hat, sigma2_hat, dw, theta_sq_hat = (np.array(col) for col in zip(*rows))

    targets = _asymptotic_targets(cfg)
    report = _base_report(
        "replications",
        cfg,
        targets,
        {"ks": KS_TOLERANCE, "cov_rel": COV_REL_TOLERANCE, "cov_abs": COV_ABS_TOLERANCE},
    )
    report.estimates = {
        "theta_hat": theta_hat.tolist(),
        "rho_hat": rho_hat.tolist(),
        "sigma2_hat": sigma2_hat.tolist(),
        "dw": dw.tolist(),
        "theta_sq_hat": theta_sq_hat.tolist(),
    }

    root_n = math.sqrt(cfg.n)
    centered = {
        "theta": root_n * (theta_hat - targets["theta_star"]),
        "rho": root_n * (rho_hat - targets["rho_star"]),
        "dw": root_n * (dw - targets["d_star"]),
    }
    sds = {
        "theta": math.sqrt(targets["var_theta"]),
        "rho": math.sqrt(targets["var_rho"]),
        "dw": math.sqrt(targets["var_d"]),
    }
    report.standardized = {}
    report.ks = {}
    for name in STATS:
        if sds[name] > 0.0:
            std = centered[name] / sds[name]
            report.standardized[name] = std.tolist()
            ks = ks_statistic(std, normal_cdf)
            report.ks[name] = {"statistic": ks.statistic, "n": ks.n}
        else:
            report.notes.append(f"{name}: asymptotic sd is zero at this parameter point, KS skipped")

    if cfg.replicates >= 2:
        report.sample_cov = np.cov(np.vstack([centered["theta"], centered["rho"]]), ddof=1).tolist()
    return report


TEST_KINDS = ("zero", "rho0", "critical")


def empirical_size_power(
    test_kind: str,
    cfg: McConfig,
    rho0: Optional[float] = None,
    threads: int = 1,
) -> McReport:
    """Fraction of replicates on which the chosen test rejects at cfg.alpha."""
    if test_kind not in TEST_KINDS:
        raise DomainError(f"unknown test kind {test_kind!r}, expected one of {TEST_KINDS}")
    if test_kind == "rho0" and rho0 is None:
        raise DomainError("test kind 'rho0' needs a rho0 value")

    def one(i: int) -> tuple:
        series = simulate(cfg.params, cfg.noise, cfg.n, derive_seed(cfg.base_seed, i))
        if test_kind == "zero":
            outcome = rho_zero_test(series.x, cfg.alpha)
        elif test_kind == "critical":
            outcome = critical_case_test(series.x, cfg.alpha)
        else:
            outcome, _ = rho_test(series.x, rho0, cfg.alpha)
        return outcome.statistic, outcome.reject

    rows = _map_replicates(one, cfg, threads)
    stats = [r[0] for r in rows]
    rejects = [bool(r[1]) for r in rows]
    rate = sum(rejects) / len(rejects)

    band = SIZE_BAND_SIGMAS * math.sqrt(cfg.alpha * (1.0 - cfg.alpha) / cfg.replicates)
    report = _base_report(
        "size_power",
        cfg,
        _asymptotic_targets(cfg),
        {"size_band_sigmas": SIZE_BAND_SIGMAS, "size_band_halfwidth": band},
    )
    report.test_kind = test_kind
    report.rho0 = rho0
    report.rejection_rate = rate
    report.test_statistics = stats
    report.rejections = rejects
    return report


def qsl_check(cfg: McConfig, which: str, k0: int = QSL_BURN_IN, threads: int = 1) -> McReport:
    """Log-averaged squared deviation of one running estimator, per path.

    Computes (1/log n) * sum_{k=k0..n} (estimate_k - limit)^2 on every
    replicate; the strong law predicts the asymptotic variance of the chosen
    statistic.  Needs n >= 10^4 so the log average carries enough scales.
    """
    if which not in STATS:
        raise DomainError(f"which must be one of {STATS}")
    if cfg.n < 10_000:
        raise DomainError("quadratic strong law check needs n >= 10^4")

    targets = _asymptotic_targets(cfg)
    limit_key, var_key = _TARGET_KEYS[which]
    limit, target_var = targets[limit_key], targets[var_key]
    log_n = math.log(cfg.n)

    def one(i: int) -> tuple:
        series = simulate(cfg.params, cfg.noise, cfg.n, derive_seed(cfg.base_seed, i))
        traj = running_estimates(series.x, k0=k0)
        track = getattr(traj, which)
        return (float(np.sum((track - limit) ** 2) / log_n),)

    values = [r[0] for r in _map_replicates(one, cfg, threads)]
    report = _base_report("qsl", cfg, targets, {"qsl_rel": QSL_REL_TOLERANCE})
    report.qsl = {
        "which": which,
        "k0": k0,
        "values": values,
        "mean": sum(values) / len(values),
        "target": target_var,
    }
    return report


def lil_deviation(estimate: float, limit: float, m: int) -> float:
    """Normalized deviation sqrt(m / (2 log log m)) * |estimate - limit|."""
    if m < 16:
        raise DomainError("checkpoint too small: log log m must be positive")
    return math.sqrt(m / (2.0 * math.log(math.log(m)))) * abs(estimate - limit)


def _prefix_estimate(x: np.ndarray, m: int, which: str) -> float:
    prefix = x[: m + 1]
    theta_hat = estimate_theta(prefix)
    if which == "theta":
        return theta_hat
    res = residuals(prefix, theta_hat)
    return estimate_rho(res) if which == "rho" else dw_statistic(res)


def lil_envelope_check(
    cfg: McConfig,
    which: str,
    checkpoints: Sequence[int],
    threads: int = 1,
) -> McReport:
    """High-probability envelope for the iterated-logarithm normalization.

    For every path and checkpoint m the deviation
    sqrt(m/(2 log log m)) * |estimate_m - limit| is compared to three times
    the asymptotic sd; the report carries the exceedance fractions.  This is
    a sanity envelope at fixed sample sizes, not a limsup estimate.
    """
    if which not in STATS:
        raise DomainError(f"which must be one of {STATS}")
    checkpoints = sorted(int(m) for m in checkpoints)
    if not checkpoints:
        raise DomainError("need at least one checkpoint")
    if checkpoints[0] < 16:
        raise DomainError("checkpoints must be at least 16 so log log m is positive")
    if checkpoints[-1] > cfg.n:
        raise DomainError("checkpoints cannot exceed the path length")

    targets = _asymptotic_targets(cfg)
    limit_key, var_key = _TARGET_KEYS[which]
    limit, sd = targets[limit_key], math.sqrt(targets[var_key])
    envelope = LIL_SD_MULTIPLE * sd

    def one(i: int) -> tuple:
        series = simulate(cfg.params, cfg.noise, cfg.n, derive_seed(cfg.base_seed, i))
        devs = [lil_deviation(_prefix_estimate(series.x, m, which), limit, m) for m in checkpoints]
        return tuple(devs)

    rows = _map_replicates(one, cfg, threads)
    devs = np.array(rows)  # shape (replicates, checkpoints)
    exceed = devs > envelope
    per_checkpoint = {
        str(m): float(np.mean(exceed[:, j])) for j, m in enumerate(checkpoints)
    }
    report = _base_report(
        "lil",
        cfg,
        targets,
        {"sd_multiple": LIL_SD_MULTIPLE, "max_fraction": LIL_MAX_FRACTION},
    )
    report.lil = {
        "which": which,
        "checkpoints": checkpoints,
        "envelope": envelope,
        "deviations": devs.tolist(),
        "exceedance_fraction": float(np.mean(exceed)),
        "per_checkpoint_fraction": per_checkpoint,
        "note": LIL_NOTE,
    }
    return report
