"""Finite-sample least squares statistics.

For a series X_0..X_n the pipeline is: fit the AR coefficient theta_hat by
least squares, form residuals eps_hat_k = X_k - theta_hat*X_{k-1} (with
eps_hat_0 = X_0), fit the residual lag-1 coefficient rho_hat, estimate the
innovation variance from the second-stage residuals, and form the
Durbin-Watson ratio.  The estimators need n >= 3 steps; shorter inputs raise
TooShort.  The one-shot estimators also take a (B, n+1) block holding one
series per row and return one value per row, bit for bit the value of the
row on its own.

Sums are accumulated with numpy's pairwise reduction, which is deterministic
and at least as accurate as sequential accumulation; the test suite checks
the algebraic identities between these sums against a compensated-summation
oracle.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DegenerateDenominator, DomainError, TooShort
from .model import Series

ArrayLike = Union[Series, np.ndarray, list, tuple]

MIN_STEPS = 3  # estimators are defined from n = 3 steps (4 points) on

DEFAULT_BURN_IN = 10  # first trajectory index; early estimates are erratic

THETA_EPS = 1e-8  # |theta_hat| at or below this counts as zero where a formula divides by it

_BLOCK = 2**14  # steps per block of running_estimates; its time was flat from 2^13 to 2^15


@dataclass(frozen=True)
class EstimateSet:
    """All one-shot statistics of a single series, or of each row of a block.

    For one series the statistics are floats; for a (B, n+1) block they are
    arrays of B values and ``residuals`` has the block's shape.
    """

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


TRAJECTORIES = ("theta", "rho", "dw")  # the trajectory fields of RunningEstimates, in walk order


def check_which(which: str) -> None:
    """A ``which`` that names no trajectory raises DomainError."""
    if which not in TRAJECTORIES:
        raise DomainError(f"which must be one of {TRAJECTORIES}")


def _as_block(path: ArrayLike) -> np.ndarray:
    """The series, or a (B, n+1) block holding one series per row."""
    if isinstance(path, Series):
        return path.x
    arr = np.asarray(path, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise DomainError("expected a one-dimensional series or a two-dimensional block of series")
    return np.ascontiguousarray(arr)  # rows contiguous, so each row sums as it does on its own


def _as_x(path: ArrayLike) -> np.ndarray:
    x = _as_block(path)
    if x.ndim != 1:
        raise DomainError("expected a one-dimensional series")
    return x


def _total(a: np.ndarray):
    """Sum along the last axis: a float for one series, one value per row for a block.

    numpy's pairwise sum of a contiguous row is the same sum as that of the
    row alone, so each row's total is bit-identical to the one-series total.
    """
    total = np.sum(a, axis=-1)
    return float(total) if total.ndim == 0 else total


def _check_steps(x: np.ndarray) -> None:
    if x.shape[-1] < MIN_STEPS + 1:
        raise TooShort(f"need at least {MIN_STEPS} steps, got {x.shape[-1] - 1}")


def _lagged(coef) -> np.ndarray:
    """A per-row coefficient as a column, so that it scales each row of a block."""
    return np.asarray(coef)[..., None]


def _denominator(denom, degenerate: str):
    """``denom``, unless one of its values is zero or negative: then DegenerateDenominator(degenerate)."""
    if np.any(denom <= 0.0):
        raise DegenerateDenominator(degenerate)
    return denom


def _slope(y: ArrayLike, lag: int, degenerate: str):
    """Least squares slope of Y_k on Y_{k-lag}: sum(Y_k Y_{k-lag}) / sum(Y_{k-lag}^2).

    A zero denominator raises DegenerateDenominator with the message ``degenerate``.
    """
    y = _as_block(y)
    _check_steps(y)
    head, tail = y[..., :-lag], y[..., lag:]
    denom = _denominator(_total(head * head), degenerate)
    return _total(tail * head) / denom


def estimate_theta(path: ArrayLike) -> float:
    """Least squares slope of X_k on X_{k-1}: sum(X_k X_{k-1}) / sum(X_{k-1}^2)."""
    return _slope(path, 1, "sum of squared lagged values is zero")


def residuals(path: ArrayLike, theta_hat: float) -> np.ndarray:
    """First-stage residuals: eps_hat_0 = X_0 and eps_hat_k = X_k - theta_hat*X_{k-1}."""
    x = _as_block(path)
    res = np.empty_like(x)
    res[..., 0] = x[..., 0]
    # X_k - theta_hat*X_{k-1}, formed in res itself: the same two roundings, no temporaries
    np.multiply(_lagged(theta_hat), x[..., :-1], out=res[..., 1:])
    np.subtract(x[..., 1:], res[..., 1:], out=res[..., 1:])
    return res


def estimate_rho(res: ArrayLike) -> float:
    """Lag-1 least squares coefficient of the residual sequence."""
    return _slope(res, 1, "sum of squared lagged residuals is zero")


def estimate_sigma2(res: ArrayLike, rho_hat: float) -> float:
    """Mean squared second-stage residual (1/n) * sum (eps_hat_k - rho_hat*eps_hat_{k-1})^2."""
    e = _as_block(res)
    if e.shape[-1] < 2:
        raise TooShort("need at least one step")
    v_hat = e[..., 1:] - _lagged(rho_hat) * e[..., :-1]
    return _total(v_hat * v_hat) / (e.shape[-1] - 1)


def dw_statistic(res: ArrayLike) -> float:
    """Durbin-Watson ratio sum (eps_hat_k - eps_hat_{k-1})^2 / sum eps_hat_k^2."""
    e = _as_block(res)
    _check_steps(e)
    denom = _denominator(_total(e * e), "sum of squared residuals is zero")
    d = np.diff(e)
    return _total(d * d) / denom


def estimate_theta_sq(path: ArrayLike) -> float:
    """Least squares slope of X_k on X_{k-2}; consistent for theta^2 when theta = -rho."""
    return _slope(path, 2, "sum of squared twice-lagged values is zero")


def estimate_all(path: ArrayLike) -> EstimateSet:
    """Run the full pipeline on one series, or on every row of a (B, n+1) block.

    Each row of a block gets bit for bit the statistics it gets on its own.
    A statistic that comes out non-finite, from nan/inf in the series or
    from values whose squares overflow float64 (magnitudes above about
    1e154), raises DomainError naming it, without numpy warnings, instead
    of being returned.  In a block, any row that trips a check raises.
    """
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
    return EstimateSet(residuals=res, n=x.shape[-1] - 1, **fitted)


def prefix_estimates(path: ArrayLike, which: str, checkpoints: Sequence[int]) -> list:
    """Statistic ``which`` of every prefix X_0..X_m, one entry per checkpoint m.

    Each entry is bit for bit what :func:`estimate_theta` gives on the prefix
    alone, or :func:`estimate_rho` or :func:`dw_statistic` of its
    :func:`residuals`: a float for one series, one value per row for a
    (B, n+1) block.  The checkpoints must ascend strictly within [3, n].  A
    zero denominator raises the DegenerateDenominator those functions raise,
    at the first checkpoint where one vanishes.

    Besides the series the refit holds one scratch row of (last checkpoint
    + 1) values per path.  The products of each sum over X go into that row
    once, and each checkpoint sums a prefix of it.  The residual sums depend
    on the checkpoint's theta_hat, so each checkpoint writes their products
    again, in two passes over residuals formed ``_BLOCK`` steps at a time:
    no residual, difference or product array of the path's length is made.
    Every sum is ``np.sum`` over a contiguous row prefix of the same products
    the one-shot functions form, so the bits do not move.
    """
    check_which(which)
    x = _as_block(path)
    n = x.shape[-1] - 1
    bounds = [MIN_STEPS - 1, *checkpoints, n + 1]  # strictly ascending exactly when the checkpoints are valid
    if len(bounds) < 3 or any(a >= b for a, b in zip(bounds, bounds[1:])):
        raise DomainError(f"checkpoints must ascend strictly within [{MIN_STEPS}, {n}]")
    last = checkpoints[-1]
    row = np.empty(x.shape[:-1] + (last + 1,))
    head = x[..., :last]

    np.multiply(head, head, out=row[..., :last])
    denoms = [_denominator(_total(row[..., :m]), "sum of squared lagged values is zero") for m in checkpoints]
    np.multiply(x[..., 1 : last + 1], head, out=row[..., :last])
    thetas = [_total(row[..., :m]) / denom for m, denom in zip(checkpoints, denoms)]
    if which == "theta":
        return thetas

    values = []
    for m, th in zip(checkpoints, thetas):
        if which == "rho":  # sum eps_k eps_{k-1} / sum eps_{k-1}^2 over k = 1..m
            squares, degenerate = m, "sum of squared lagged residuals is zero"
        else:  # sum (eps_k - eps_{k-1})^2 / sum eps_k^2 over k = 0..m
            squares, degenerate = m + 1, "sum of squared residuals is zero"
        row[..., 0] = x[..., 0] * x[..., 0]
        for a, b, eps in _residual_chunks(x, th, squares):
            np.multiply(eps[..., 1:], eps[..., 1:], out=row[..., a:b])
        denom = _denominator(_total(row[..., :squares]), degenerate)
        for a, b, eps in _residual_chunks(x, th, m + 1):  # the lag-k term goes to slot k-1
            out = row[..., a - 1 : b - 1]
            if which == "rho":
                np.multiply(eps[..., 1:], eps[..., :-1], out=out)
            else:
                np.subtract(eps[..., 1:], eps[..., :-1], out=out)
                np.multiply(out, out, out=out)
        values.append(_total(row[..., :m]) / denom)
    return values


def _residual_chunks(x: np.ndarray, theta_hat, stop: int):
    """Residuals eps_k = X_k - theta_hat*X_{k-1} for k = 1..stop-1, ``_BLOCK`` steps at a time.

    Yields (a, b, eps) for consecutive chunks of steps a..b-1: ``eps[..., 1:]``
    holds eps_a..eps_{b-1} and ``eps[..., 0]`` holds eps_{a-1} (X_0 at a = 1),
    rounded as :func:`residuals` rounds them.  The buffer is reused, so each
    chunk is valid only until the next is asked for.
    """
    buf = np.empty(x.shape[:-1] + (_BLOCK + 1,))
    buf[..., 0] = x[..., 0]
    for a in range(1, stop, _BLOCK):
        b = min(a + _BLOCK, stop)
        eps = buf[..., : b - a + 1]
        np.multiply(_lagged(theta_hat), x[..., a - 1 : b - 1], out=eps[..., 1:])
        np.subtract(x[..., a:b], eps[..., 1:], out=eps[..., 1:])
        yield a, b, eps
        buf[..., 0] = eps[..., -1]


def _advance_sums(x: np.ndarray, a: int, b: int, sums: np.ndarray) -> np.ndarray:
    """Extend the running sums S, P and, if ``sums`` has a third row, Q over steps a..b-1 (a >= 2) in place.

    Column 0 of ``sums`` holds the sums at step a-1; the returned view
    ``sums[:, :b-a+1]`` holds them at steps a-1..b-1, one row per sum.  Two
    rows are the real and imaginary parts of a complex buffer (see
    :func:`_walk`), which one cumsum accumulates: a complex sum adds the real
    parts and the imaginary parts apart, so each row takes the additions of
    its own cumsum.
    """
    block = sums[:, : b - a + 1]
    xb = x[a:b]
    np.multiply(xb, xb, out=block[0, 1:])
    np.multiply(xb, x[a - 1 : b - 1], out=block[1, 1:])
    if len(sums) == 3:
        np.multiply(xb, x[a - 2 : b - 2], out=block[2, 1:])
        np.cumsum(block, axis=1, out=block)
    else:
        pairs = block.T.view(np.complex128)
        np.cumsum(pairs, axis=0, out=pairs)
    return block


def check_burn_in(n: int, k0: int) -> None:
    """Raise unless burn-in k0 is at least 3 and a path of n steps reaches it."""
    if k0 < 3:
        raise DomainError("burn-in k0 must be at least 3")
    if n < k0:
        raise TooShort(f"need at least k0={k0} steps, got {n}")


@contextmanager
def _overflow_guard():
    """Report numpy overflow or invalid operations in the body as DomainError, without warnings."""
    try:
        # numpy checks its floating-point flags after every operation anyway; raising costs nothing
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise DomainError("running estimates are not finite: a running sum or estimate overflows float64") from exc


def running_estimates(path: ArrayLike, k0: int = DEFAULT_BURN_IN) -> RunningEstimates:
    """Trajectories of the three estimators in O(n) total work.

    theta_hat_k comes from the running sums S_k = sum_{i<=k} X_i^2,
    P_k = sum_{i<=k} X_i X_{i-1} and Q_k = sum_{i<=k} X_i X_{i-2}; the
    residual sums at step k are expanded in theta_hat_k through the exact
    identities

        I_k = P_k - theta_hat_k*(S_{k-1} + Q_k) + theta_hat_k^2 * P_{k-1}
        J_k = S_k - 2*theta_hat_k*P_k + theta_hat_k^2 * S_{k-1}

    so no residual vector is ever rebuilt per k.  Burn-in k0 skips the
    erratic early estimates.  A series holding nan or inf raises DomainError
    before any sum is formed; a residual sum J_{k-1} that vanishes (or
    cancels to a negative value) raises DegenerateDenominator at the block
    where it happens, before that block divides by it.  Finite values whose
    sums or trajectories overflow float64 (as magnitudes above about 1e154 do)
    raise DomainError at the first overflow, as :func:`estimate_all` does,
    without numpy warnings.

    The path is walked in blocks of ``_BLOCK`` steps.  Each block's running
    sums start from the totals carried out of the block before it, so every
    sum takes the same additions in the same order as one ``np.cumsum`` over
    the whole path, and every elementwise step rounds the same operands in
    the same order as the whole-array formulas; the trajectories are
    therefore bit-identical for any block size.  Besides the four returned
    arrays, a call holds six block buffers (about 0.8 MB) whatever n is.
    :func:`squared_deviation_sum` takes the same walk.

    The expansions cancel as theta_hat_k approaches 1, so the end point
    agrees with the one-shot estimators less closely near the unit root.
    Measured over 40 seeds at n = 10^5, the worst relative gap on dw was
    3.8e-14 at (theta, rho) = (0.5, 0.3) and 6.4e-8 at (0.99, 0.99), with
    1.3e-9 on rho_hat; theta_hat_k, a plain ratio of running sums, stayed
    within 3e-14.  The tests pin 1e-6 on dw at (0.99, 0.99).
    """
    with _overflow_guard():
        theta, rho, dw = _walk(path, k0, TRAJECTORIES)
    return RunningEstimates(k=np.arange(k0, k0 + theta.size), theta=theta, rho=rho, dw=dw)


def squared_deviation_sum(path: ArrayLike, which: str, limit: float, k0: int = DEFAULT_BURN_IN) -> float:
    """sum_{k=k0..n} (estimate_k - limit)^2 along the running trajectory ``which``.

    ``which`` names a trajectory of :func:`running_estimates` (theta, rho or
    dw), and the sum is bit for bit the one over that trajectory.  Only that
    trajectory is held at full length, so besides the series a call holds
    one path-sized array and a few block buffers.  For theta the walk forms
    only S and P, and no residual sum; the check that J_{k-1} does not
    vanish guards the rho and dw divisions, so it applies to rho and dw
    alone.  Every other check of
    :func:`running_estimates` applies, and a squared deviation or a sum that
    overflows raises the same DomainError, without numpy warnings.
    """
    check_which(which)
    with _overflow_guard():
        (track,) = _walk(path, k0, (which,))
        np.subtract(track, limit, out=track)
        np.square(track, out=track)
        return float(np.sum(track))


def _walk(path: ArrayLike, k0: int, keep: tuple) -> tuple:
    """The blocked walk of the running sums: the trajectories named in ``keep``, in walk order.

    Validates the series and the burn-in, then carries S and P (and Q when
    ``keep`` names rho or dw, whose residual sums need it) from block to
    block; run it under :func:`_overflow_guard`.  Only the kept trajectories
    are held at full length: a trajectory the walk needs but does not keep
    (theta_hat_k for rho and dw, dw_k's slot for rho) lives in a block buffer.
    """
    residual_sums = keep != ("theta",)
    x = _as_x(path)
    n = x.size - 1
    check_burn_in(n, k0)
    if not np.isfinite(x).all():  # no mask is held through the walk
        i = int(np.argmin(np.isfinite(x)))
        raise DomainError(f"non-finite value {x[i]} at index {i} of the series")

    if residual_sums:
        sums = np.empty((3, _BLOCK + 1))
    else:  # S and P as the real and imaginary parts of one complex row, which one cumsum walks
        sums = np.empty(_BLOCK + 1, np.complex128).view(np.float64).reshape(-1, 2).T
    # S_1, P_1, Q_1 as a cumsum over the whole path forms them (its 0.0 + turns -0.0 into 0.0)
    sums[:, 0] = (x[0] * x[0] + x[1] * x[1], 0.0 + x[1] * x[0], 0.0)[: len(sums)]
    for a in range(2, k0, _BLOCK):
        b = min(a + _BLOCK, k0)
        sums[:, 0] = _advance_sums(x, a, b, sums)[:, -1]
    if sums[0, 0] <= 0.0:
        raise DegenerateDenominator("series is identically zero up to the burn-in")

    kept = [name in keep for name in TRAJECTORIES[: 3 if residual_sums else 1]]
    tracks = [np.empty(n + 1 - k0 if full else _BLOCK) for full in kept]
    if residual_sums:
        scratch = np.empty((3, _BLOCK))
    for a in range(k0, n + 1, _BLOCK):
        b = min(a + _BLOCK, n + 1)
        block = _advance_sums(x, a, b, sums)
        th, *residual = [track[a - k0 : b - k0] if full else track[: b - a] for track, full in zip(tracks, kept)]
        np.divide(block[1, 1:], block[0, :-1], out=th)
        if residual_sums:
            _residual_block(x, a, b, block, th, *residual, scratch[:, : b - a])
        sums[:, 0] = block[:, -1]
    return tuple(track for track, full in zip(tracks, kept) if full)


def _residual_block(
    x: np.ndarray,
    a: int,
    b: int,
    block: np.ndarray,
    th: np.ndarray,
    rho: np.ndarray,
    dw: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Write rho_hat_k and dw_k for k = a..b-1 from the block's running sums and theta_hat_k.

    ``scratch`` holds three rows of b-a values.
    """
    s, p, q = block
    j_k = dw  # J_k sits in dw's slot until the last division
    i_k, eps_sq, j_prev = scratch

    np.multiply(2.0, th, out=i_k)  # J_k = S_k - 2*th*P_k + th*th*S_{k-1}
    np.multiply(i_k, p[1:], out=i_k)
    np.subtract(s[1:], i_k, out=i_k)
    np.multiply(th, th, out=eps_sq)
    np.multiply(eps_sq, s[:-1], out=j_k)
    np.add(i_k, j_k, out=j_k)
    np.add(s[:-1], q[1:], out=j_prev)  # I_k = P_k - th*(S_{k-1} + Q_k) + th*th*P_{k-1}
    np.multiply(th, j_prev, out=j_prev)
    np.subtract(p[1:], j_prev, out=i_k)
    np.multiply(eps_sq, p[:-1], out=eps_sq)
    np.add(i_k, eps_sq, out=i_k)
    np.multiply(th, x[a - 1 : b - 1], out=eps_sq)  # eps_k = X_k - th*X_{k-1}, squared
    np.subtract(x[a:b], eps_sq, out=eps_sq)
    np.multiply(eps_sq, eps_sq, out=eps_sq)
    np.subtract(j_k, eps_sq, out=j_prev)
    if j_prev.min() <= 0.0:
        raise DegenerateDenominator("residual sum of squares vanished along the trajectory")

    np.divide(i_k, j_prev, out=rho)
    np.subtract(j_prev, i_k, out=i_k)  # dw = (2*(J_{k-1} - I_k) + eps_k^2 - X_0^2) / J_k
    np.multiply(2.0, i_k, out=i_k)
    np.add(i_k, eps_sq, out=i_k)
    np.subtract(i_k, x[0] * x[0], out=i_k)
    np.divide(i_k, j_k, out=j_k)
