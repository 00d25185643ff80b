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
than one worker the blocks run in child processes forked from the caller,
each taking one contiguous share of them and sending its results back
through its own pipe; otherwise they run in the caller.  A child dies with
its parent (on Linux), and the first failing share stops the run at once.

Each experiment returns one :class:`McReport`, built in one place: its JSON
body (the fields every experiment shares, then the experiment's own
results, then notes) and the per-replicate rows its workers returned,
which ``verify --csv`` writes.
"""

from __future__ import annotations

import math
import operator
import os
import pickle
import sys
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional, Sequence

import numpy as np

from . import limits
from .dist import ks_statistic, normal_cdf
from .errors import DomainError, DWLabError
from .estimators import (
    DEFAULT_BURN_IN,
    TRAJECTORIES,
    EstimateSet,
    check_burn_in,
    check_which,
    estimate_all,
    prefix_estimates,
    squared_deviation_sum,
)
from .model import _MASK64, ModelParams, NoiseSpec, check_seed, simulate_paths
from .testing import check_alpha, check_rho0, critical_outcome, rho_outcome, zero_outcome

# Unused here; the benchmark's span tracer wraps these names on this module.
from .estimators import dw_statistic, estimate_rho, estimate_theta, residuals, running_estimates  # noqa: F401
from .model import simulate  # noqa: F401
from .testing import critical_case_test, rho_test, rho_zero_test  # noqa: F401

_GOLDEN_GAMMA = 0x9E3779B97F4A7C15

_PR_SET_PDEATHSIG = 1  # Linux's prctl option number, from linux/prctl.h

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

# The checked statistics are the running trajectories.
STATS = TRAJECTORIES

# Each checked statistic, in STATS order: its EstimateSet field, then the
# target keys of its almost-sure limit and of its asymptotic variance.
_STATISTICS = dict(
    zip(
        STATS,
        (("theta_hat", "theta_star", "var_theta"), ("rho_hat", "rho_star", "var_rho"), ("dw", "d_star", "var_d")),
    )
)

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


@dataclass(frozen=True)
class McReport:
    """One experiment's report, in JSON-ready plain types.

    ``body`` is the JSON body: the fields every experiment shares (model
    point, noise, n, replicates, base seed, alpha, targets and tolerances),
    then the experiment's own results, then ``notes``.  ``rows`` are the
    per-replicate rows the workers returned, in replicate order, and
    ``columns`` names their fields.
    """

    body: dict
    columns: tuple
    rows: list

    def to_dict(self) -> dict:
        return self.body

    def table(self) -> tuple[list, list]:
        """Header and columns of the per-replicate CSV dump: the replicate index, then the rows' fields."""
        return ["replicate", *self.columns], [range(len(self.rows)), *zip(*self.rows)]


def _shared_fields(cfg: McConfig, targets: dict, tolerances: dict) -> dict:
    """The fields that open every report body."""
    p = cfg.params
    return dict(theta=p.theta, rho=p.rho, sigma2=p.sigma2, noise=cfg.noise.kind, n=cfg.n, replicates=cfg.replicates,
                base_seed=cfg.base_seed, alpha=cfg.alpha, targets=targets, tolerances=tolerances)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _libc_function(name: str, nargs: int):
    """The C library's function ``name`` taking ``nargs`` ints and returning an int, or None.

    None off POSIX (``CDLL(None)`` is dlopen(NULL), the running program's
    symbols) and where the library has no such function.  ``ctypes`` is
    imported only here.
    """
    if os.name != "posix":
        return None
    import ctypes

    try:
        function = getattr(ctypes.CDLL(None), name)
    except (OSError, AttributeError):
        return None
    function.argtypes = (ctypes.c_int,) * nargs
    function.restype = ctypes.c_int
    return function


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
    contiguous shares of ceil(blocks / W), and one child process forked
    from this one runs each share (:func:`_forked_map`).  The children reach
    ``statistic`` through the fork, so nothing but each share's results is
    pickled.  Otherwise the blocks run here, one after another.  A worker
    stops at its first failing block, and the error raised is the one of
    the first failing block in index order; the later shares are killed
    then, without waiting for them.  A worker that dies fails the run with
    a :class:`DWLabError`.

    When a block raises, its rows are rerun one at a time, so the error is
    the one the first failing replicate raises on its own, as with B = 1.
    """
    if threads < 1:
        raise DomainError(f"threads must be at least 1, got {threads}")
    size = max(1, _BLOCK_VALUES // (cfg.n + 1))
    starts = range(0, cfg.replicates, size)

    def block(start: int) -> list:
        seeds = [derive_seed(cfg.base_seed, i) for i in range(start, min(start + size, cfg.replicates))]
        x = simulate_paths(cfg.params, cfg.noise, cfg.n, seeds)
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
    """The blocks at ``starts`` run in contiguous shares on forked children, results in index order.

    Each child pickles ``(ok, results or first error)`` into its own pipe and
    leaves through ``os._exit``, never flushing the stdio it inherited.  The
    pipes are read in share order, so the first failed share holds the first
    failing block, and the later shares are killed without waiting for them.
    """
    import signal  # 0.7 ms to import, so only where a run forks

    share = -(-len(starts) // workers)
    prctl = _libc_function("prctl", 2) if sys.platform.startswith("linux") else None
    parent = os.getpid()
    children = []  # (pid, read end of its pipe), in share order
    try:
        for first in range(0, len(starts), share):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    os.close(read)  # with the parent alone reading, its death breaks the pipe
                    for _, pipe in children:
                        pipe.close()
                    if prctl is not None:
                        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
                    if os.getppid() == parent:  # else the parent died before the prctl
                        try:
                            payload = True, list(chain.from_iterable(map(block, starts[first : first + share])))
                        except Exception as exc:
                            payload = False, exc
                        with open(write, "wb") as out:
                            pickle.dump(payload, out, pickle.HIGHEST_PROTOCOL)
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, open(read, "rb")))
        results = []
        for _, pipe in children:
            try:
                ok, value = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError) as exc:
                raise DWLabError("a Monte Carlo worker process died before finishing its share") from exc
            if not ok:
                raise value
            results += value
        return results
    finally:
        for pid, pipe in children:  # a child that has sent its share is exiting anyway
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _estimate_rows(est: EstimateSet) -> list:
    """The fitted statistics of each row of a block fit, as a tuple of floats in ``_ESTIMATES`` order."""
    return list(zip(*(getattr(est, name).tolist() for name in _ESTIMATES)))


def _fit_rows(x: np.ndarray) -> list:
    """One ``estimate_all`` over a block; each row's fit as an EstimateSet of floats."""
    est = estimate_all(x)
    return [EstimateSet(*values, residuals=res, n=est.n) for values, res in zip(_estimate_rows(est), est.residuals)]


def _asymptotic_targets(cfg: McConfig) -> dict:
    a = limits.asymptotics(cfg.params.theta, cfg.params.rho, cfg.params.sigma2)
    return {**{key: getattr(a, key) for key in _TARGETS}, "gamma": a.gamma.tolist()}


def _limit_and_variance(cfg: McConfig, which: str) -> tuple[dict, float, float]:
    """The targets, and the almost-sure limit and asymptotic variance of statistic ``which``."""
    check_which(which)
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
    targets = _asymptotic_targets(cfg)
    rows = _map_paths(lambda x: _estimate_rows(estimate_all(x)), cfg, threads)
    estimates = {name: list(column) for name, column in zip(_ESTIMATES, zip(*rows))}

    root_n = math.sqrt(cfg.n)
    centered, standardized, ks, notes = {}, {}, {}, []
    for name, (column, limit_key, var_key) in _STATISTICS.items():
        centered[name] = root_n * (np.array(estimates[column]) - targets[limit_key])
        sd = math.sqrt(targets[var_key])
        if sd > 0.0:
            std = centered[name] / sd
            standardized[name] = std.tolist()
            result = ks_statistic(std, normal_cdf)
            ks[name] = {"statistic": result.statistic, "n": result.n}
        else:
            notes.append(f"{name}: asymptotic sd is zero at this parameter point, KS skipped")

    tolerances = {"ks": KS_TOLERANCE, "cov_rel": COV_REL_TOLERANCE, "cov_abs": COV_ABS_TOLERANCE}
    body = {**_shared_fields(cfg, targets, tolerances), "estimates": estimates, "standardized": standardized, "ks": ks}
    if cfg.replicates >= 2:
        body["sample_cov"] = np.cov(np.vstack([centered["theta"], centered["rho"]]), ddof=1).tolist()
    body["notes"] = notes
    return McReport(body, _ESTIMATES, rows)


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
        return [(o.statistic, int(o.reject)) for o in map(outcome, _fit_rows(x))]

    targets = _asymptotic_targets(cfg)
    rows = _map_paths(test, cfg, threads)
    band = SIZE_BAND_SIGMAS * math.sqrt(cfg.alpha * (1.0 - cfg.alpha) / cfg.replicates)
    tolerances = {"size_band_sigmas": SIZE_BAND_SIGMAS, "size_band_halfwidth": band}
    body = {
        **_shared_fields(cfg, targets, tolerances),
        "rejection_rate": sum(reject for _, reject in rows) / len(rows),
        "test_kind": test_kind,
    }
    if test_kind == "rho0":  # the other kinds never read rho0
        body["rho0"] = rho0
    body.update(test_statistics=[statistic for statistic, _ in rows], rejections=[bool(r) for _, r in rows], notes=[])
    return McReport(body, ("statistic", "reject"), rows)


def qsl_check(cfg: McConfig, which: str, k0: int = DEFAULT_BURN_IN, threads: int = 1) -> McReport:
    """Log-averaged squared deviation of one running estimator, per path.

    Computes (1/log n) * sum_{k=k0..n} (estimate_k - limit)^2 on every
    replicate; the strong law predicts the asymptotic variance of the chosen
    statistic.  Needs n >= 10^4 so the log average carries enough scales,
    and checks the burn-in before any path is drawn.  Each path takes one
    walk of :func:`squared_deviation_sum`, which keeps only the summed
    trajectory at full length: for theta it forms only the running sums S
    and P; rho and dw also need the residual sums, and hold the other two
    trajectories a block at a time.  So a worker holds its path, one
    trajectory and about 1 MB of block buffers.
    """
    if cfg.n < 10_000:
        raise DomainError("quadratic strong law check needs n >= 10^4")

    targets, limit, target_var = _limit_and_variance(cfg, which)
    check_burn_in(cfg.n, k0)
    log_n = math.log(cfg.n)
    values = _map_paths(lambda x: [squared_deviation_sum(path, which, limit, k0) / log_n for path in x], cfg, threads)
    body = {
        **_shared_fields(cfg, targets, {"qsl_rel": QSL_REL_TOLERANCE}),
        "qsl": {"which": which, "k0": k0, "values": values, "mean": sum(values) / len(values), "target": target_var},
        "notes": [],
    }
    return McReport(body, ("qsl_value",), [(value,) for value in values])


def lil_deviation(estimate, limit: float, m: int):
    """Normalized deviation sqrt(m / (2 log log m)) * |estimate - limit|.

    ``estimate`` is one value or an array of them, one per path.
    """
    if m < 16:
        raise DomainError("checkpoint too small: log log m must be positive")
    return math.sqrt(m / (2.0 * math.log(math.log(m)))) * abs(estimate - limit)


def _checkpoint(m) -> int:
    """A checkpoint as an int; anything but an integer (1000.7, "1e3", None) raises DomainError naming it."""
    try:
        return operator.index(m)
    except TypeError:
        raise DomainError(f"checkpoints must be integers, got {m!r}") from None


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

    The checkpoints must be distinct integers from 16 to n, in any order; a
    value that is not an integer raises DomainError naming it.  Each path's
    estimates come from one :func:`prefix_estimates` refit over all the
    checkpoints, so a worker holds its path and one scratch row as long as
    the last checkpoint.
    """
    checkpoints = sorted(map(_checkpoint, checkpoints))
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
        estimates = prefix_estimates(x, which, checkpoints)
        columns = [lil_deviation(value, limit, m) for m, value in zip(checkpoints, estimates)]
        return np.column_stack(columns).tolist()

    rows = _map_paths(deviations, cfg, threads)
    exceed = np.array(rows) > envelope  # shape (replicates, checkpoints)
    per_checkpoint = {str(m): float(np.mean(exceed[:, j])) for j, m in enumerate(checkpoints)}
    body = {
        **_shared_fields(cfg, targets, {"sd_multiple": LIL_SD_MULTIPLE, "max_fraction": LIL_MAX_FRACTION}),
        "lil": {
            "which": which,
            "checkpoints": checkpoints,
            "envelope": envelope,
            "deviations": rows,
            "exceedance_fraction": float(np.mean(exceed)),
            "per_checkpoint_fraction": per_checkpoint,
            "note": LIL_NOTE,
        },
        "notes": [],
    }
    return McReport(body, tuple(f"deviation_{m}" for m in checkpoints), rows)
