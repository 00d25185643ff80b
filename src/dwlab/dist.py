"""Probability primitives: normal CDF, chi-square(1) CDF/tail/quantile, KS distance.

The CDFs are built on the C library error functions (exact to about 1 ulp)
and the quantile on the standard library's normal quantile.  Only one degree
of freedom is needed for the chi-square, so no general gamma machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, EmptySample

_SQRT2 = math.sqrt(2.0)
_STD_NORMAL = NormalDist()


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erf; absolute error well below 1e-12."""
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def _check_chi2_arg(x: float) -> None:
    if x < 0.0 or math.isnan(x):
        raise DomainError("chi-square CDF needs x >= 0")


def chi2_cdf1(x: float) -> float:
    """CDF of the chi-square law with one degree of freedom: erf(sqrt(x/2))."""
    _check_chi2_arg(x)
    return math.erf(math.sqrt(0.5 * x))


def chi2_sf1(x: float) -> float:
    """Upper tail 1 - chi2_cdf1(x) as erfc(sqrt(x/2)), accurate where 1 - CDF rounds to zero."""
    _check_chi2_arg(x)
    return math.erfc(math.sqrt(0.5 * x))


def chi2_quantile1(p: float) -> float:
    """Inverse of chi2_cdf1 on (0, 1): the squared normal quantile at (1 + p)/2."""
    if not (0.0 < p < 1.0):
        raise DomainError("quantile needs 0 < p < 1")
    return _STD_NORMAL.inv_cdf(0.5 + 0.5 * p) ** 2


@dataclass(frozen=True)
class KsResult:
    """Kolmogorov-Smirnov distance of a sample against a reference CDF."""

    statistic: float
    n: int


def ks_statistic(sample: Sequence[float], cdf: Callable[[float], float]) -> KsResult:
    """Sup distance between the empirical CDF of the sample and ``cdf``.

    The sample is sorted internally; the supremum is attained at a sample
    point from one side or the other, so both one-sided gaps are checked.
    """
    xs = np.sort(np.asarray(sample, dtype=np.float64))
    n = xs.size
    if n == 0:
        raise EmptySample("KS statistic of an empty sample")
    f = np.array([cdf(float(v)) for v in xs])
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    stat = float(np.max(np.maximum(np.abs(grid_hi - f), np.abs(grid_lo - f))))
    return KsResult(statistic=stat, n=n)
