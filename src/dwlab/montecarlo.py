"""Monte Carlo verification engine.

Replicates simulations under a deterministic per-replicate seed derivation,
then checks the distributional claims at desk scale: almost-sure limits,
central limit behavior (marginal and joint), test size and power, the
quadratic strong law of the running estimators, and an envelope version of
the law of iterated logarithm.

Replicate i always uses seed ``derive_seed(base_seed, i)``.  Replicates are
simulated and fitted in blocks of consecutive indices, one path per row of a
(B, n+1) array; each row is the path its seed alone gives, so reports are
bit-identical whatever the block size or the number of workers.  With more
than one worker the blocks run in processes forked from the caller, each
taking one contiguous share of them; otherwise they run in the caller.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Optional, Sequence

import numpy as np

from . import limits
from .dist import ks_statistic, normal_cdf
from .errors import DomainError, DWLabError
from .estimators import (
    DEFAULT_BURN_IN,
    EstimateSet,
    check_burn_in,
    estimate_all,
    estimate_rho,
    estimate_theta,
    dw_statistic,
    residuals,
    squared_deviation_sum,
)
from .model import _MASK64, ModelParams, NoiseSpec, check_seed, float_cells, simulate_paths
from .testing import check_alpha, check_rho0, critical_outcome, rho_outcome, zero_outcome

# Unused here; the benchmark's span tracer wraps these names on this module.
from .estimators import running_estimates  # noqa: F401
from .model import simulate  # noqa: F401
from .testing import critical_case_test, rho_test, rho_zero_test  # noqa: F401

_GOLDEN_GAMMA = 0x9E3779B97F4A7C15

# Path values per replicate block, so B = max(1, _BLOCK_VALUES // (n + 1))
# paths: 13 at n = 5000, one from n = 2^15 on.  Swept at n = 5000 (clt and
# power, 3000 replicates each, twice, in one process under verify's pinned
# malloc thresholds), B = 13 to 64 ran equally fast on 2 threads and B = 1
# half as fast, while the peak RSS grew with B (44 MB at B = 1, 48 at 13, 56
# at 32, 69 at 64).
_BLOCK_VALUES = 2**16

# Tolerances used by the verification experiments, echoed in every report.
KS_TOLERANCE = 0.05
COV_REL_TOLERANCE = 0.10
COV_ABS_TOLERANCE = 0.05
QSL_REL_TOLERANCE = 0.30
SIZE_BAND_SIGMAS = 3.0
LIL_SD_MULTIPLE = 3.0
LIL_MAX_FRACTION = 0.05

LIL_NOTE = (
    "envelope check at fixed sample sizes; the limsup characterization of the "
    "law of iterated logarithm is not observable at finite n"
)

# Each checked statistic: its EstimateSet field, then the target keys of its
# almost-sure limit and of its asymptotic variance.
_STATISTICS = {
    "theta": ("theta_hat", "theta_star", "var_theta"),
    "rho": ("rho_hat", "rho_star", "var_rho"),
    "dw": ("dw", "d_star", "var_d"),
}
STATS = tuple(_STATISTICS)

# The fitted statistics of each replicate, in EstimateSet and report order.
_ESTIMATES = ("theta_hat", "rho_hat", "sigma2_hat", "dw", "theta_sq_hat")

# The report targets besides gamma, in report order: the limits and the
# asymptotic variances of the three statistics.
_TARGETS = ("theta_star", "rho_star", "d_star", "var_theta", "var_rho", "var_d")


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
        check_alpha(self.alpha)


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
        return {name: value for name, value in vars(self).items() if value is not None}

    def table(self) -> tuple[list, list]:
        """Header and columns of the per-replicate CSV dump, one row per replicate."""
        index = range(self.replicates)
        if self.estimates is not None:
            names = list(self.estimates)
            return ["replicate"] + names, [index] + [float_cells(self.estimates[name]) for name in names]
        if self.test_statistics is not None:
            columns = [index, float_cells(self.test_statistics), map(int, self.rejections)]
            return ["replicate", "statistic", "reject"], columns
        if self.qsl is not None:
            return ["replicate", "qsl_value"], [index, float_cells(self.qsl["values"])]
        header = ["replicate"] + [f"deviation_{m}" for m in self.lil["checkpoints"]]
        return header, [index] + [float_cells(col) for col in np.transpose(self.lil["deviations"])]


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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# In a forked worker: the block function of the _map_paths call that forked it.
_worker_block: Optional[Callable[[int], list]] = None


def _start_worker(block: Callable[[int], list]) -> None:
    global _worker_block
    _worker_block = block


def _run_share(starts: Sequence[int]) -> list:
    """The results of the blocks at ``starts``, in order; the first failing block stops the share."""
    return list(chain.from_iterable(map(_worker_block, starts)))


def _map_paths(statistic: Callable[[np.ndarray], list], cfg: McConfig, threads: int) -> list:
    """Simulate every replicate path and apply statistic to it, preserving index order.

    Replicate i is simulated with seed ``derive_seed(cfg.base_seed, i)``.
    The replicates go in blocks of B = max(1, _BLOCK_VALUES // (n + 1))
    consecutive indices: one :func:`simulate_paths` call draws a block as a
    (B, n+1) array, and ``statistic`` returns the B per-replicate results of
    its rows, in row order.  Each row depends only on its own seed, so the
    result depends neither on B nor on the number of workers.

    The blocks run on W = min(threads, blocks, usable CPUs) workers.  With
    W >= 2, and where the platform can fork, the blocks are cut into
    contiguous shares of ceil(blocks / W), and one worker process forked
    from this one runs each share.  The workers reach ``statistic`` through
    the fork, so nothing but each share's results is pickled.  Otherwise
    the blocks run here, one after another.  A worker stops at its first
    failing block, and the error raised is the one of the first failing
    block in index order.  A worker that dies fails the run with a
    :class:`DWLabError`.

    When a block raises, its rows are rerun one at a time, so the error is
    the one the first failing replicate raises on its own, as with B = 1.
    """
    if threads < 1:
        raise DomainError(f"threads must be at least 1, got {threads}")
    size = max(1, _BLOCK_VALUES // (cfg.n + 1))
    starts = range(0, cfg.replicates, size)

    def block(start: int) -> list:
        seeds = [derive_seed(cfg.base_seed, i) for i in range(start, min(start + size, cfg.replicates))]
        x = simulate_paths(cfg.params, cfg.noise, cfg.n, seeds)[0]
        try:
            return statistic(x)
        except DWLabError:
            for row in range(x.shape[0]):
                statistic(x[row : row + 1])
            raise

    workers = min(threads, len(starts), _usable_cpus())
    if workers >= 2 and hasattr(os, "fork"):
        return _forked_map(block, starts, workers)
    return list(chain.from_iterable(map(block, starts)))


def _forked_map(block: Callable[[int], list], starts: range, workers: int) -> list:
    """The blocks at ``starts`` run in contiguous shares on forked workers, results in index order."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    share = -(-len(starts) // workers)
    shares = [starts[i : i + share] for i in range(0, len(starts), share)]
    fork = multiprocessing.get_context("fork")
    # with fork the executor starts every worker before its own thread, and passes initargs unpickled
    with ProcessPoolExecutor(len(shares), mp_context=fork, initializer=_start_worker, initargs=(block,)) as pool:
        futures = [pool.submit(_run_share, s) for s in shares]
        try:
            # the shares are in index order and each stops at its own first failure,
            # so the first share to fail holds the first failing block
            return list(chain.from_iterable(f.result() for f in futures))
        except BrokenProcessPool as exc:
            raise DWLabError("a Monte Carlo worker process died before finishing its share") from exc


def _fit_rows(x: np.ndarray) -> list:
    """One ``estimate_all`` over a block; each row's fit as an EstimateSet of floats."""
    est = estimate_all(x)
    rows = zip(*(getattr(est, name).tolist() for name in _ESTIMATES), est.residuals)
    return [EstimateSet(*values, residuals=res, n=est.n) for *values, res in rows]


def _asymptotic_targets(cfg: McConfig) -> dict:
    a = limits.asymptotics(cfg.params.theta, cfg.params.rho, cfg.params.sigma2)
    return {**{key: getattr(a, key) for key in _TARGETS}, "gamma": a.gamma.tolist()}


def _limit_and_variance(cfg: McConfig, which: str) -> tuple[dict, float, float]:
    """The targets, and the almost-sure limit and asymptotic variance of statistic ``which``."""
    if which not in STATS:
        raise DomainError(f"which must be one of {STATS}")
    targets = _asymptotic_targets(cfg)
    _, limit_key, var_key = _STATISTICS[which]
    return targets, targets[limit_key], targets[var_key]


def run_replications(cfg: McConfig, threads: int = 1) -> McReport:
    """Estimate every replicate and compare the standardized laws to normality.

    The report carries per-replicate estimates, the standardized statistics
    sqrt(n)*(estimate - limit)/sd where the asymptotic sd is positive, their
    KS distances against the standard normal CDF, and the sample covariance
    of sqrt(n)*(theta_hat - theta_star, rho_hat - rho_star).
    """

    def fit(x: np.ndarray) -> list:
        est = estimate_all(x)
        return list(zip(*(getattr(est, name).tolist() for name in _ESTIMATES)))

    targets = _asymptotic_targets(cfg)
    rows = _map_paths(fit, cfg, threads)
    report = _base_report(
        "replications",
        cfg,
        targets,
        {"ks": KS_TOLERANCE, "cov_rel": COV_REL_TOLERANCE, "cov_abs": COV_ABS_TOLERANCE},
    )
    report.estimates = {name: list(column) for name, column in zip(_ESTIMATES, zip(*rows))}

    root_n = math.sqrt(cfg.n)
    centered = {}
    report.standardized = {}
    report.ks = {}
    for name, (column, limit_key, var_key) in _STATISTICS.items():
        centered[name] = root_n * (np.array(report.estimates[column]) - targets[limit_key])
        sd = math.sqrt(targets[var_key])
        if sd > 0.0:
            std = centered[name] / sd
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
    if test_kind == "rho0":
        check_rho0(rho0)

    def outcome(est: EstimateSet):
        if test_kind == "zero":
            return zero_outcome(est, cfg.alpha)
        if test_kind == "critical":
            return critical_outcome(est, cfg.alpha)
        return rho_outcome(est, rho0, cfg.alpha)[0]

    def test(x: np.ndarray) -> list:
        return [(o.statistic, o.reject) for o in map(outcome, _fit_rows(x))]

    targets = _asymptotic_targets(cfg)
    rows = _map_paths(test, cfg, threads)
    stats = [r[0] for r in rows]
    rejects = [bool(r[1]) for r in rows]
    rate = sum(rejects) / len(rejects)

    band = SIZE_BAND_SIGMAS * math.sqrt(cfg.alpha * (1.0 - cfg.alpha) / cfg.replicates)
    report = _base_report(
        "size_power",
        cfg,
        targets,
        {"size_band_sigmas": SIZE_BAND_SIGMAS, "size_band_halfwidth": band},
    )
    report.test_kind = test_kind
    report.rho0 = rho0 if test_kind == "rho0" else None  # the other kinds never read it
    report.rejection_rate = rate
    report.test_statistics = stats
    report.rejections = rejects
    return report


def qsl_check(cfg: McConfig, which: str, k0: int = DEFAULT_BURN_IN, threads: int = 1) -> McReport:
    """Log-averaged squared deviation of one running estimator, per path.

    Computes (1/log n) * sum_{k=k0..n} (estimate_k - limit)^2 on every
    replicate; the strong law predicts the asymptotic variance of the chosen
    statistic.  Needs n >= 10^4 so the log average carries enough scales,
    and checks the burn-in before any path is drawn.  Each path takes one
    walk of :func:`squared_deviation_sum`: for theta it forms only the
    running sums S and P and one trajectory; rho and dw need the residual
    sums and all three trajectories.
    """
    if cfg.n < 10_000:
        raise DomainError("quadratic strong law check needs n >= 10^4")

    targets, limit, target_var = _limit_and_variance(cfg, which)
    check_burn_in(cfg.n, k0)
    log_n = math.log(cfg.n)

    def log_average(x: np.ndarray) -> float:
        return squared_deviation_sum(x, which, limit, k0) / log_n

    values = _map_paths(lambda x: list(map(log_average, x)), cfg, threads)
    report = _base_report("qsl", cfg, targets, {"qsl_rel": QSL_REL_TOLERANCE})
    report.qsl = {
        "which": which,
        "k0": k0,
        "values": values,
        "mean": sum(values) / len(values),
        "target": target_var,
    }
    return report


def lil_deviation(estimate, limit: float, m: int):
    """Normalized deviation sqrt(m / (2 log log m)) * |estimate - limit|.

    ``estimate`` is one value or an array of them, one per path.
    """
    if m < 16:
        raise DomainError("checkpoint too small: log log m must be positive")
    return math.sqrt(m / (2.0 * math.log(math.log(m)))) * abs(estimate - limit)


def _prefix_estimate(x: np.ndarray, m: int, which: str) -> np.ndarray:
    """Statistic ``which`` of X_0..X_m, fitted on every row of a (B, n+1) block."""
    prefix = x[:, : m + 1]
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
    checkpoints = sorted(int(m) for m in checkpoints)
    if not checkpoints:
        raise DomainError("need at least one checkpoint")
    if checkpoints[0] < 16:
        raise DomainError("checkpoints must be at least 16 so log log m is positive")
    if checkpoints[-1] > cfg.n:
        raise DomainError("checkpoints cannot exceed the path length")
    repeated = [m for m, following in zip(checkpoints, checkpoints[1:]) if m == following]
    if repeated:
        raise DomainError(f"checkpoints must be distinct, {repeated[0]} is repeated")

    targets, limit, variance = _limit_and_variance(cfg, which)
    envelope = LIL_SD_MULTIPLE * math.sqrt(variance)

    def deviations(x: np.ndarray) -> list:
        columns = [lil_deviation(_prefix_estimate(x, m, which), limit, m) for m in checkpoints]
        return np.column_stack(columns).tolist()

    rows = _map_paths(deviations, cfg, threads)
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
