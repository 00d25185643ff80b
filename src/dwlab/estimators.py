"""Finite-sample least squares statistics.

For a series X_0..X_n the pipeline is: fit the AR coefficient theta_hat by
least squares, form residuals eps_hat_k = X_k - theta_hat*X_{k-1} (with
eps_hat_0 = X_0), fit the residual lag-1 coefficient rho_hat, estimate the
innovation variance from the second-stage residuals, and form the
Durbin-Watson ratio.  The estimators need n >= 3 steps; shorter inputs raise
TooShort.  They also take a (B, n+1) block holding one series per row and
return one value per row, bit for bit the value of the row on its own.
One kernel, :func:`fit`, fits the statistics asked for on the array it is
given and checks that they are finite; :func:`estimate_all` is all five of
them and keeps no residuals, and the one-statistic functions give, one at a
time, its bits.  A caller that wants a prefix X_0..X_m fits ``x[..., :m + 1]``.

Sums are accumulated with numpy's pairwise reduction, which is deterministic
and at least as accurate as sequential accumulation; the test suite checks
the algebraic identities between these sums against a compensated-summation
oracle.  A sum of more than ``_LEAF`` terms is formed a leaf of numpy's own
summation tree at a time, so it is bit for bit ``np.sum`` while only a leaf
of its terms is held, whatever n is.  One recursion, :func:`_pairwise`,
walks that tree for every long sum: each sum length of a fit is one walk
over its leaves, which forms every kind of term of that length, and the
sum of a running trajectory's squared deviations steps the running sums
through the leaves of its own length.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import DEFAULT_BURN_IN, TRAJECTORIES
from .errors import DegenerateDenominator, DomainError, TooShort
from .model import Series

ArrayLike = Union[Series, np.ndarray, list, tuple]

MIN_STEPS = 3  # estimators are defined from n = 3 steps (4 points) on

THETA_EPS = 1e-8  # |theta_hat| at or below this counts as zero where a formula divides by it

_LEAF = 2**14  # most terms a sum or walk forms at once: a leaf of numpy's pairwise tree, at least 128, where numpy stops splitting

# The DegenerateDenominator message of each least squares denominator, by the statistic it divides
THETA_DEGENERATE = "sum of squared lagged values is zero"
RHO_DEGENERATE = "sum of squared lagged residuals is zero"
DW_DEGENERATE = "sum of squared residuals is zero"
THETA_SQ_DEGENERATE = "sum of squared twice-lagged values is zero"


@dataclass(frozen=True)
class EstimateSet:
    """All one-shot statistics of a single series, or of each row of a block.

    For one series the statistics are floats; for a (B, n+1) block they are
    arrays of B values.  :func:`residuals` of the series and ``theta_hat`` forms the residuals behind them.
    """

    theta_hat: float
    rho_hat: float
    sigma2_hat: float
    dw: float
    theta_sq_hat: float
    n: int


@dataclass(frozen=True)
class RunningEstimates:
    """Trajectories (theta_hat_k, rho_hat_k, dw_k) for k = k0..n, step k at index k - k0."""

    theta: np.ndarray
    rho: np.ndarray
    dw: np.ndarray


ESTIMATES = ("theta_hat", "rho_hat", "sigma2_hat", "dw", "theta_sq_hat")  # the fitted fields of EstimateSet, in order


def check_which(which: str) -> None:
    """A ``which`` that names no trajectory raises DomainError."""
    if which not in TRAJECTORIES:
        raise DomainError(f"which must be one of {TRAJECTORIES}")


def _checkpoint(m, rule: str = "checkpoints must be integers") -> int:
    """``m`` as an int; anything but an integer (1000.7, "1e3", None) raises DomainError(f"{rule}, got {m!r}")."""
    try:
        return operator.index(m)
    except TypeError:
        raise DomainError(f"{rule}, got {m!r}") from None


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
    total = np.add.reduce(a, axis=-1)  # np.sum's own reduction, without its dispatch
    return float(total) if total.ndim == 0 else total


def _check_steps(x: np.ndarray) -> None:
    if x.shape[-1] < MIN_STEPS + 1:
        raise TooShort(f"need at least {MIN_STEPS} steps, got {x.shape[-1] - 1}")


def _lagged(coef) -> np.ndarray:
    """A per-row coefficient as a column, so that it scales each row of a block."""
    return np.asarray(coef)[..., None]


def _denominator(denom, degenerate: str):
    """``denom``, unless one of its values is zero or negative: then DegenerateDenominator(degenerate)."""
    if np.less_equal(denom, 0.0).any():
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
    return _slope(path, 1, THETA_DEGENERATE)


def residuals(path: ArrayLike, theta_hat: float) -> np.ndarray:
    """First-stage residuals: eps_hat_0 = X_0 and eps_hat_k = X_k - theta_hat*X_{k-1}."""
    x = _as_block(path)
    return _form_residuals(x, theta_hat, 0, x.shape[-1], np.empty_like(x))


def _form_residuals(x: np.ndarray, theta_hat, a: int, stop: int, out: np.ndarray) -> np.ndarray:
    """eps_hat_a..eps_hat_{stop-1} into the first stop-a slots of ``out``, each rounded as in the whole series."""
    if a == 0:
        out[..., 0] = x[..., 0]
    lo = a or 1
    eps = out[..., lo - a : stop - a]
    # X_k - theta_hat*X_{k-1}, formed in place: the same two roundings, no temporaries
    np.multiply(_lagged(theta_hat), x[..., lo - 1 : stop - 1], out=eps)
    np.subtract(x[..., lo:stop], eps, out=eps)
    return out


def estimate_rho(res: ArrayLike) -> float:
    """Lag-1 least squares coefficient of the residual sequence."""
    return _slope(res, 1, RHO_DEGENERATE)


def dw_statistic(res: ArrayLike) -> float:
    """Durbin-Watson ratio sum (eps_hat_k - eps_hat_{k-1})^2 / sum eps_hat_k^2."""
    e = _as_block(res)
    _check_steps(e)
    denom = _denominator(_total(e * e), DW_DEGENERATE)
    d = np.diff(e)
    return _total(d * d) / denom


def estimate_theta_sq(path: ArrayLike) -> float:
    """Least squares slope of X_k on X_{k-2}; consistent for theta^2 when theta = -rho."""
    return _slope(path, 2, THETA_SQ_DEGENERATE)


def estimate_all(path: ArrayLike) -> EstimateSet:
    """Run the full pipeline on one series, or on every row of a (B, n+1) block.

    Each row of a block gets bit for bit the statistics it gets on its own.
    The statistics are :func:`fit` of all five ``ESTIMATES``, with its
    checks, so no residual series is formed.
    """
    x = _as_block(path)
    return EstimateSet(n=x.shape[-1] - 1, **dict(zip(ESTIMATES, fit(x, ESTIMATES))))


def fit(path: ArrayLike, names: Sequence[str]) -> list:
    """The statistics ``names`` (from ESTIMATES) of the series, or of each row of a (B, n+1) block, in that order.

    The one fit kernel: each value is bit for bit what the one-statistic
    functions give, a float for one series, one value per row for a
    block.  A zero denominator raises what :func:`estimate_all`'s pipeline
    raises first: theta_hat's, then rho_hat's (dw's when neither rho_hat nor
    sigma2_hat is asked for), then theta_sq_hat's.  A statistic that comes
    out non-finite, from nan/inf in the series or from values whose squares
    overflow float64 (magnitudes above about 1e154), raises DomainError
    naming the first such name, without numpy warnings, instead of being
    returned.  In a block, any row that trips a check raises.

    Every sum is numpy's pairwise sum, formed leaf by leaf (see
    :func:`_pairwise`), and only the sums that ``names`` needs are formed,
    in at most five walks, one per sum length and pass: the products over X
    of m terms and, for theta_sq_hat, of m-1 terms; then the residuals, over
    m+1 terms for dw's denominator, over m terms for rho_hat's sums, and
    over m terms again for sigma2_hat's second-stage residuals, which need
    rho_hat.  dw's differences go with rho_hat's residual pass.  Each leaf
    forms the residuals it needs, unless the leaf before formed the same
    ones, so a series within one leaf forms its residuals once for every
    sum, as the one-statistic functions do.  Besides the series a call holds
    a scratch row and a residual buffer of at most ``_LEAF`` + 1 values per
    path.
    """
    if not names or not set(names) <= set(ESTIMATES):
        raise DomainError(f"statistics must be named from {ESTIMATES}")
    x = _as_block(path)
    _check_steps(x)
    m = x.shape[-1] - 1
    row = np.empty(x.shape[:-1] + (min(m + 1, _LEAF),))

    def lagged_products(lags, a, b):  # per lag, the sum of X_{k+lag} X_k over k = a..b-1
        out, sums = row[..., : b - a], np.empty((len(lags),) + x.shape[:-1])
        for i, lag in enumerate(lags):
            np.add.reduce(np.multiply(x[..., a + lag : b + lag], x[..., a:b], out=out), axis=-1, out=sums[i, ...])
        return sums

    def residual_products(kinds, a, b):  # per kind, the sum over k = a..b-1 of eps_k^2 or of a term in eps_{k+1} and eps_k
        nonlocal formed
        if formed != (a, min(b + 1, m + 1)):  # eps_a..eps_b, as far as the series goes
            formed = (a, min(b + 1, m + 1))
            _form_residuals(x, fitted["theta_hat"], *formed, buf)
        now, then, out = buf[..., : b - a], buf[..., 1 : b - a + 1], row[..., : b - a]
        sums = np.empty((len(kinds),) + x.shape[:-1])
        for i, kind in enumerate(kinds):
            if kind == "sq":
                np.square(now, out=out)
            elif kind == "lag":
                np.multiply(then, now, out=out)
            else:  # sigma2_hat's second-stage residual eps_{k+1} - rho_hat*eps_k, or dw's eps_{k+1} - eps_k, squared
                np.subtract(then, np.multiply(_lagged(fitted["rho_hat"]), now, out=out) if kind == "sigma2" else now, out=out)
                np.square(out, out=out)
            np.add.reduce(out, axis=-1, out=sums[i, ...])  # np.sum's own reduction, into the kind's slot
        return sums

    fit_theta_sq = "theta_sq_hat" in names
    fit_sigma2 = "sigma2_hat" in names
    fit_rho = "rho_hat" in names or fit_sigma2
    fit_dw = "dw" in names
    fitted = {}
    with np.errstate(over="ignore", invalid="ignore"):
        # theta_hat: sum X_k X_{k-1} / sum X_{k-1}^2 over k = 1..m
        s, p = _pairwise(m, lambda a, b: lagged_products((0, 1), a, b))
        fitted["theta_hat"] = p / _denominator(s, THETA_DEGENERATE)
        if fit_rho or fit_dw:
            buf = np.empty(x.shape[:-1] + (min(m, _LEAF) + 1,))
            formed = None  # the (start, stop) of the residuals in buf
            # rho_hat: sum eps_k eps_{k-1} / sum eps_{k-1}^2 over k = 1..m; dw: sum (eps_k - eps_{k-1})^2 over k = 1..m
            # / sum eps_k^2 over k = 0..m, a sum of m+1 terms that only dw reads.  dw's differences go with rho_hat's
            # pass; sigma2_hat's terms need rho_hat, so they take a pass of their own
            if fit_dw:
                (dw_denominator,) = _pairwise(m + 1, lambda a, b: residual_products(("sq",), a, b))
            kinds = ("sq", "lag") * fit_rho + ("diff",) * fit_dw
            sums = _pairwise(m, lambda a, b: residual_products(kinds, a, b))
            if fit_rho:
                fitted["rho_hat"] = sums[1] / _denominator(sums[0], RHO_DEGENERATE)
            else:
                _denominator(dw_denominator, DW_DEGENERATE)
            if fit_dw:
                fitted["dw"] = sums[-1] / dw_denominator
            if fit_sigma2:  # within one leaf the residuals are still in buf
                (sigma2_sum,) = _pairwise(m, lambda a, b: residual_products(("sigma2",), a, b))
                fitted["sigma2_hat"] = sigma2_sum / m
        if fit_theta_sq:  # sum X_k X_{k-2} / sum X_{k-2}^2 over k = 2..m
            s, q = _pairwise(m - 1, lambda a, b: lagged_products((0, 2), a, b))
            fitted["theta_sq_hat"] = q / _denominator(s, THETA_SQ_DEGENERATE)
    values = [fitted[name] for name in names]
    finite = np.isfinite(values).reshape(len(values), -1).all(axis=1)  # one check for all of them
    if not finite.all():
        raise DomainError(f"{names[finite.argmin()]} is not finite: the series holds nan/inf or its sums of squares overflow")
    return values if x.ndim == 2 else [float(value) for value in values]


def _split(n: int) -> int:
    """Where numpy's pairwise sum splits n > 128 values: at n//2, rounded down to its unroll of 8."""
    return n // 2 - n // 2 % 8


def _pairwise(n: int, leaf, a: int = 0):
    """numpy's pairwise sum of the n terms at positions a..a+n-1, formed a leaf at a time.

    The tree depends on n alone (Higham, "The accuracy of floating point
    summation", SISC 1993); a leaf is a whole subtree of at most ``_LEAF``
    terms, which ``np.add.reduce`` of the leaf alone sums by the same tree.
    ``leaf(a, b)`` returns the sum of the terms at a..b-1, a float or a
    numpy array of several sums; it is called once per leaf, in order, and
    the leaf sums are added up along the tree.  Each add is elementwise and
    IEEE, so every result is bit for bit ``np.sum`` over its n terms.  A
    leaf sum starts from +0.0, as numpy's total does, which can only turn a
    -0.0 leaf into 0.0 and so leaves the total as it is.
    """
    if n <= _LEAF:
        return leaf(a, a + n)
    h = _split(n)
    return _pairwise(h, leaf, a) + _pairwise(n - h, leaf, a + h)


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
    """Raise unless burn-in k0 is an integer, at least 3, and a path of n steps reaches it."""
    if _checkpoint(k0, "burn-in k0 must be an integer") < 3:
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

    The path is walked in blocks of ``_LEAF`` steps.  Each block's running
    sums start from the totals carried out of the block before it, so every
    sum takes the same additions in the same order as one ``np.cumsum`` over
    the whole path, and every elementwise step rounds the same operands in
    the same order as the whole-array formulas; the trajectories are
    therefore bit-identical for any block size.  Besides the three returned
    arrays, a call holds six block buffers of at most ``_LEAF`` values
    (about 0.8 MB) whatever n is.

    The expansions cancel as theta_hat_k approaches 1, so the end point
    agrees with the one-shot estimators less closely near the unit root.
    Measured over 40 seeds at n = 10^5, the worst relative gap on dw was
    3.8e-14 at (theta, rho) = (0.5, 0.3) and 6.4e-8 at (0.99, 0.99), with
    1.3e-9 on rho_hat; theta_hat_k, a plain ratio of running sums, stayed
    within 3e-14.  The tests pin 1e-6 on dw at (0.99, 0.99).
    """
    x = _series(path, k0)
    tracks = [np.empty(x.size - k0) for _ in TRAJECTORIES]
    with _overflow_guard():
        advance = _walk(x, k0, True, min(_LEAF, x.size - k0))
        for a in range(k0, x.size, _LEAF):
            b = min(a + _LEAF, x.size)
            advance(a, b, *(track[a - k0 : b - k0] for track in tracks))
    return RunningEstimates(*tracks)


def squared_deviation_sum(path: ArrayLike, which: str, limit: float, k0: int = DEFAULT_BURN_IN) -> float:
    """sum_{k=k0..n} (estimate_k - limit)^2 along the running trajectory ``which``.

    ``which`` names a trajectory of :func:`running_estimates` (theta, rho or
    dw), and the sum is bit for bit ``np.sum`` over that trajectory.  The
    walk steps through the leaves of that sum's pairwise tree (see
    :func:`_pairwise`), so each leaf of squared deviations is summed as
    soon as it is formed and no trajectory is held at full length: besides
    the series a call holds a few buffers as long as the longest leaf, at
    most ``_LEAF`` values.  For theta the walk forms only S and P, and no
    residual sum; the check that J_{k-1} does not vanish guards the rho and
    dw divisions, so it applies to rho and dw alone.  Every other check of
    :func:`running_estimates` applies, and a squared deviation or a sum that
    overflows raises the same DomainError, without numpy warnings.
    """
    check_which(which)
    x = _series(path, k0)
    residual_sums = which != "theta"
    size = max(_pairwise(x.size - k0, lambda a, b: (b - a,)))  # the longest leaf: a sum of 1-tuples lists them all
    tracks = [np.empty(size) for _ in TRAJECTORIES[: 3 if residual_sums else 1]]
    slot = TRAJECTORIES.index(which)

    def deviations(a, b):
        views = [track[: b - a] for track in tracks]
        advance(a, b, *views)
        d = views[slot]
        return _total(np.square(np.subtract(d, limit, out=d), out=d))

    with _overflow_guard():
        advance = _walk(x, k0, residual_sums, size)
        return _pairwise(x.size - k0, deviations, k0)


def _series(path: ArrayLike, k0: int) -> np.ndarray:
    """The series of a walk, once the burn-in is checked and every value is finite.

    The values are checked ``_LEAF`` at a time, so no mask as long as the
    series is held; the first non-finite value raises DomainError naming it
    and its index.
    """
    x = _as_x(path)
    check_burn_in(x.size - 1, k0)
    for a in range(0, x.size, _LEAF):
        finite = np.isfinite(x[a : a + _LEAF])
        if not finite.all():
            i = a + int(np.argmin(finite))
            raise DomainError(f"non-finite value {x[i]} at index {i} of the series")
    return x


def _walk(x: np.ndarray, k0: int, residual_sums: bool, size: int):
    """The running sums' walk: runs the burn-in, then returns ``advance(a, b, th, *residual)``.

    ``x`` comes from :func:`_series`.  Called on consecutive blocks (a, b) of
    at most ``size`` steps from k0 to n+1, ``advance`` writes theta_hat_k for
    k = a..b-1 into the caller's view ``th`` and, with ``residual_sums``,
    rho_hat_k and dw_k, which need Q and the residual sums, into the views
    ``rho`` and ``dw``.  Run it under :func:`_overflow_guard`.
    """
    step = max(size, min(_LEAF, k0 - 2))  # burn-in steps per block: a long burn-in is walked _LEAF at a time
    if residual_sums:
        sums, scratch = np.empty((3, step + 1)), np.empty((3, size))
    else:  # S and P as the real and imaginary parts of one complex row, which one cumsum walks
        sums = np.empty(step + 1, np.complex128).view(np.float64).reshape(-1, 2).T
    # S_1, P_1, Q_1 as a cumsum over the whole path forms them (its 0.0 + turns -0.0 into 0.0)
    sums[:, 0] = (x[0] * x[0] + x[1] * x[1], 0.0 + x[1] * x[0], 0.0)[: len(sums)]
    for a in range(2, k0, step):
        b = min(a + step, k0)
        sums[:, 0] = _advance_sums(x, a, b, sums)[:, -1]
    if sums[0, 0] <= 0.0:
        raise DegenerateDenominator("series is identically zero up to the burn-in")

    def advance(a, b, th, *residual):
        block = _advance_sums(x, a, b, sums)
        np.divide(block[1, 1:], block[0, :-1], out=th)
        if residual_sums:
            s, p, q = block
            rho, j_k = residual  # J_k sits in dw's slot until the last division
            i_k, eps_sq, j_prev = scratch[:, : b - a]

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
        sums[:, 0] = block[:, -1]

    return advance
