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
which claim them one at a time and send their results back through a pipe
each; otherwise they run in the caller.  A child dies with its parent (on
Linux), and a failing block stops the claims at once.

Each experiment ends in one call of ``_report``, the only maker of a
:class:`McReport`: its JSON body of summaries (the fields every experiment
shares, then the experiment's own results, then notes) and the
per-replicate rows its workers returned, which only ``verify --csv`` writes.
"""

from __future__ import annotations

import math
import operator
import os
import pickle
import sys
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain
from typing import IO, Callable, Optional, Sequence

import numpy as np

from . import DEFAULT_ALPHA, DEFAULT_BURN_IN, TEST_KINDS, TRAJECTORIES, limits
from .dist import chi2_quantile1, ks_statistic, normal_cdf
from .errors import DomainError, DWLabError
from .estimators import (
    ESTIMATES,
    _checkpoint,
    check_burn_in,
    check_which,
    estimate_all,
    fit,
    squared_deviation_sum,
)
from .model import _MASK64, ModelParams, NoiseSpec, check_seed, simulate_paths
from .testing import check_alpha, check_rho0, critical_statistic, rho_statistic, zero_statistic

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

# Each checked statistic, a running trajectory in TRAJECTORIES order: its
# EstimateSet field, then the target keys of its almost-sure limit and of its
# asymptotic variance.
_STATISTICS = dict(
    zip(
        TRAJECTORIES,
        (("theta_hat", "theta_star", "var_theta"), ("rho_hat", "rho_star", "var_rho"), ("dw", "d_star", "var_d")),
    )
)

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
    alpha: float = DEFAULT_ALPHA

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
    then the experiment's summaries, then ``notes``.  ``rows`` are the
    per-replicate rows the workers returned, in replicate order, which only
    ``verify --csv`` writes, and ``columns`` names their fields.
    """

    body: dict
    columns: tuple
    rows: list

    def table(self) -> tuple[list, list]:
        """Header and columns of the per-replicate CSV dump: the replicate index, then the rows' fields."""
        return ["replicate", *self.columns], [range(len(self.rows)), *zip(*self.rows)]


def _report(
    cfg: McConfig, targets: dict, tolerances: dict, results: dict, columns: tuple, rows: list, notes: Sequence = ()
) -> McReport:
    """The report of one experiment: the fields every body opens with, then ``results``, then ``notes``."""
    p = cfg.params
    body = dict(theta=p.theta, rho=p.rho, sigma2=p.sigma2, noise=cfg.noise.kind, n=cfg.n, replicates=cfg.replicates,
                base_seed=cfg.base_seed, alpha=cfg.alpha, targets=targets, tolerances=tolerances)
    return McReport({**body, **results, "notes": list(notes)}, columns, rows)


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


def _map_paths(statistic: Callable[[np.ndarray], list], cfg: McConfig, threads: Optional[int]) -> list:
    """Simulate every replicate path and apply statistic to it, preserving index order.

    Replicate i is simulated with seed ``derive_seed(cfg.base_seed, i)``.
    The replicates go in blocks of B = max(1, _BLOCK_VALUES // (n + 1))
    consecutive indices: one :func:`simulate_paths` call draws a block as a
    (B, n+1) array, and ``statistic`` returns the B per-replicate results of
    its rows, in row order.  Each row depends only on its own seed, so the
    result depends neither on B nor on the number of workers.

    The blocks run on W = min(threads, blocks, usable CPUs) workers, where
    ``threads=None`` stands for every usable CPU.  With
    W >= 2, and where the platform can fork, W children forked from this one
    claim the blocks one at a time (:func:`_forked_map`); they reach
    ``statistic`` through the fork, so only their results are pickled.
    Otherwise the blocks run here, one after another.  A worker stops at its
    first failing block, and no block starts after it; the error raised is
    that of the failing block with the lowest index, as at one worker.  A
    worker that dies fails the run with a :class:`DWLabError`.

    When a block raises, its rows are rerun one at a time, so the error is
    the one the first failing replicate raises on its own, as with B = 1.
    """
    if threads is not None and threads < 1:
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

    cpus = _usable_cpus()
    workers = min(threads or cpus, len(starts), cpus)
    if workers >= 2 and hasattr(os, "fork"):
        return _forked_map(block, starts, workers)
    return list(chain.from_iterable(map(block, starts)))


def _forked_map(block: Callable[[int], list], starts: range, workers: int) -> list:
    """The blocks at ``starts`` run on forked children that claim them one at a time, results in index order.

    A claim is one 4-byte read of a block index from the pipe all children
    share.  A child pickles ``([(index, results), ...], None)``, or at its
    first failing block ``([], (index, error))``, into its own pipe and
    leaves through ``os._exit``, never flushing the stdio it inherited.
    """
    import signal  # 0.7 ms to import, so only where a run forks

    prctl = _libc_function("prctl", 2) if sys.platform.startswith("linux") else None
    parent = os.getpid()
    claims, feed = (open(fd, mode, buffering=0) for fd, mode in zip(os.pipe(), ("rb", "wb")))
    children = []  # (pid, read end of its pipe)
    try:
        for _ in range(workers):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    os.close(read)  # with the parent alone reading, its death breaks the pipe
                    for pipe in (feed, *(pipe for _, pipe in children)):
                        pipe.close()
                    if prctl is not None:
                        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
                    if os.getppid() == parent:  # else the parent died before the prctl
                        payload = _run_claims(block, starts, claims)
                        with open(write, "wb") as out:
                            pickle.dump(payload, out, pickle.HIGHEST_PROTOCOL)
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, open(read, "rb")))
        claims.close()  # so that, with every child gone, a write raises instead of blocking
        with feed, suppress(BrokenPipeError):  # closing it ends the claims; if every child died, their pipes say so
            for first in range(0, len(starts), 128):  # 512 bytes, POSIX's least atomic pipe write
                feed.write(np.arange(first, min(first + 128, len(starts)), dtype="<u4").tobytes())
        done, failures = {}, []
        for _, pipe in children:
            try:
                rows, failure = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError) as exc:
                raise DWLabError("a Monte Carlo worker process died before finishing its share") from exc
            done.update(rows)
            failures.append(failure)
        if any(failures):  # the claims go in index order, so every block before a failing one has run
            raise min(filter(None, failures), key=operator.itemgetter(0))[1]
        return list(chain.from_iterable(done[index] for index in range(len(starts))))
    finally:
        claims.close()
        feed.close()
        for pid, pipe in children:  # a child that has sent its results is exiting anyway
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_claims(block: Callable[[int], list], starts: range, claims: IO[bytes]) -> tuple:
    """A forked child's work: the blocks it claims, until the claims run out or one fails."""
    done = []
    while claim := claims.read(4):
        index = int.from_bytes(claim, "little")
        try:
            done.append((index, block(starts[index])))
        except Exception as exc:
            while claims.read(512):  # so that no other child starts a block
                pass
            return [], (index, exc)
    return done, None


def _asymptotic_targets(cfg: McConfig) -> dict:
    a = limits.asymptotics(cfg.params.theta, cfg.params.rho, cfg.params.sigma2)
    return {**{key: getattr(a, key) for key in _TARGETS}, "gamma": [list(row) for row in a.gamma]}


def _limit_and_variance(cfg: McConfig, which: str) -> tuple[dict, float, float]:
    """The targets, and the almost-sure limit and asymptotic variance of statistic ``which``."""
    check_which(which)
    targets = _asymptotic_targets(cfg)
    _, limit_key, var_key = _STATISTICS[which]
    return targets, targets[limit_key], targets[var_key]


def run_replications(cfg: McConfig, threads: Optional[int] = 1) -> McReport:
    """Estimate every replicate and compare the standardized laws to normality.

    The report carries the KS distances of the standardized statistics
    sqrt(n)*(estimate - limit)/sd, where the asymptotic sd is positive, and
    the sample covariance of sqrt(n)*(theta_hat - theta_star, rho_hat -
    rho_star); the rows are each replicate's five estimates.  The paths run
    on at most ``threads`` workers, ``threads=None`` meaning every usable CPU.
    """
    targets = _asymptotic_targets(cfg)
    rows = _map_paths(lambda x: np.column_stack(fit(x, ESTIMATES)).tolist(), cfg, threads)
    estimates = dict(zip(ESTIMATES, zip(*rows)))

    root_n = math.sqrt(cfg.n)
    centered, ks, notes = {}, {}, []
    for name, (column, limit_key, var_key) in _STATISTICS.items():
        centered[name] = root_n * (np.array(estimates[column]) - targets[limit_key])
        sd = math.sqrt(targets[var_key])
        if sd > 0.0:
            ks[name] = vars(ks_statistic(centered[name] / sd, normal_cdf))
        else:
            notes.append(f"{name}: asymptotic sd is zero at this parameter point, KS skipped")

    tolerances = {"ks": KS_TOLERANCE, "cov_rel": COV_REL_TOLERANCE, "cov_abs": COV_ABS_TOLERANCE}
    results = {"ks": ks}
    if cfg.replicates >= 2:
        results["sample_cov"] = np.cov(np.vstack([centered["theta"], centered["rho"]]), ddof=1).tolist()
    return _report(cfg, targets, tolerances, results, ESTIMATES, rows, notes)


def empirical_size_power(
    test_kind: str,
    cfg: McConfig,
    rho0: Optional[float] = None,
    threads: Optional[int] = 1,
) -> McReport:
    """Fraction of replicates on which the chosen test rejects at cfg.alpha; the rows are (statistic, 0/1).

    A block is tested on its one ``estimate_all`` by the statistics of :mod:`dwlab.testing`, each row's bit for
    bit its path's alone, against the chi-square quantile taken once per run.
    ``threads`` as in :func:`run_replications`: None means every usable CPU.
    """
    if test_kind not in TEST_KINDS:
        raise DomainError(f"unknown test kind {test_kind!r}, expected one of {TEST_KINDS}")
    if test_kind == "rho0":
        check_rho0(rho0)
    statistic = {
        "zero": lambda est: zero_statistic(est.n, est.dw, est.theta_hat),
        "rho0": lambda est: rho_statistic(est, rho0)[0],
        "critical": lambda est: critical_statistic(est.n, est.dw, est.theta_sq_hat),
    }[test_kind]
    threshold = chi2_quantile1(1.0 - cfg.alpha)

    def test(x: np.ndarray) -> list:
        return [(value, int(value > threshold)) for value in statistic(estimate_all(x)).tolist()]

    targets = _asymptotic_targets(cfg)
    rows = _map_paths(test, cfg, threads)
    band = SIZE_BAND_SIGMAS * math.sqrt(cfg.alpha * (1.0 - cfg.alpha) / cfg.replicates)
    tolerances = {"size_band_sigmas": SIZE_BAND_SIGMAS, "size_band_halfwidth": band}
    results = {"rejection_rate": sum(reject for _, reject in rows) / len(rows), "test_kind": test_kind}
    if test_kind == "rho0":  # the other kinds never read rho0
        results["rho0"] = rho0
    return _report(cfg, targets, tolerances, results, ("statistic", "reject"), rows)


def qsl_check(cfg: McConfig, which: str, k0: int = DEFAULT_BURN_IN, threads: Optional[int] = 1) -> McReport:
    """Log-averaged squared deviation of one running estimator, per path.

    Computes (1/log n) * sum_{k=k0..n} (estimate_k - limit)^2 on every
    replicate; the strong law predicts the asymptotic variance of the chosen
    statistic.  Needs n >= 10^4 so the log average carries enough scales,
    and checks the burn-in before any path is drawn.  Each path takes one
    walk of :func:`squared_deviation_sum`, whose blocks are the leaves of
    the sum's pairwise tree, so no trajectory is held at full length: for
    theta it forms only the running sums S and P; rho and dw also need the
    residual sums.  So a worker holds its path and about 0.4 MB (theta) or
    1.2 MB (rho, dw) of block buffers.  ``threads`` as in
    :func:`run_replications`: None means every usable CPU.
    """
    if cfg.n < 10_000:
        raise DomainError("quadratic strong law check needs n >= 10^4")

    targets, limit, target_var = _limit_and_variance(cfg, which)
    check_burn_in(cfg.n, k0)
    log_n = math.log(cfg.n)
    values = _map_paths(lambda x: [squared_deviation_sum(path, which, limit, k0) / log_n for path in x], cfg, threads)
    qsl = {"which": which, "k0": k0, "mean": sum(values) / len(values), "target": target_var}
    return _report(cfg, targets, {"qsl_rel": QSL_REL_TOLERANCE}, {"qsl": qsl}, ("qsl_value",), [(v,) for v in values])


def lil_deviation(estimate, limit: float, m: int):
    """Normalized deviation sqrt(m / (2 log log m)) * |estimate - limit|.

    ``estimate`` is one value or an array of them, one per path.
    """
    if m < 16:
        raise DomainError("checkpoint too small: log log m must be positive")
    return math.sqrt(m / (2.0 * math.log(math.log(m)))) * abs(estimate - limit)


def lil_envelope_check(
    cfg: McConfig,
    which: str,
    checkpoints: Sequence[int],
    threads: Optional[int] = 1,
) -> McReport:
    """High-probability envelope for the iterated-logarithm normalization.

    For every path and checkpoint m the deviation
    sqrt(m/(2 log log m)) * |estimate_m - limit| is compared to three times
    the asymptotic sd; the report carries the exceedance fractions.  This is
    a sanity envelope at fixed sample sizes, not a limsup estimate.

    The checkpoints must be distinct integers from 16 to n, in any order; a
    value that is not an integer raises DomainError naming it.  The deviation
    at m comes from one :func:`fit` of the prefix ``x[..., :m + 1]``, with its
    finiteness check; the prefix of a one-path block is not copied, and a
    long-path worker holds its path and a scratch row and a residual buffer
    of one leaf of 2^14 values each.  ``threads`` as in
    :func:`run_replications`: None means every usable CPU.
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

    names = (_STATISTICS[which][0],)

    def deviations(x: np.ndarray) -> list:
        columns = [lil_deviation(*fit(x[..., : m + 1], names), limit, m) for m in checkpoints]
        return np.column_stack(columns).tolist()

    rows = _map_paths(deviations, cfg, threads)
    exceed = np.array(rows) > envelope  # shape (replicates, checkpoints)
    per_checkpoint = {str(m): float(np.mean(exceed[:, j])) for j, m in enumerate(checkpoints)}
    lil = {
        "which": which,
        "checkpoints": checkpoints,
        "envelope": envelope,
        "exceedance_fraction": float(np.mean(exceed)),
        "per_checkpoint_fraction": per_checkpoint,
        "note": LIL_NOTE,
    }
    tolerances = {"sd_multiple": LIL_SD_MULTIPLE, "max_fraction": LIL_MAX_FRACTION}
    return _report(cfg, targets, tolerances, {"lil": lil}, tuple(f"deviation_{m}" for m in checkpoints), rows)
