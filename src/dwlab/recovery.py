"""Recovery of the true (theta, rho, sigma2) from the limiting estimators.

The two least squares limits determine theta + rho and theta * rho, so the
true pair is a root pair of one quadratic; which root is theta cannot be
decided from the data and is supplied as a convention.  The innovation
variance follows from the residual variance estimate through an exact
correction factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import CONVENTIONS
from .errors import DegenerateDenominator, DomainError, NegativeDiscriminant, ThetaNearZero
from .estimators import THETA_EPS

DISCRIMINANT_CLAMP = 1e-10  # rounding guard: tiny negative discriminants mean a double root


@dataclass(frozen=True)
class RecoveredParams:
    """Root pair assigned per convention, plus the sums it was solved from."""

    theta_rec: float
    rho_rec: float
    convention: str
    s_hat: float  # theta_hat + rho_hat, estimates theta + rho
    p_hat: float  # rho_hat / theta_hat, estimates theta * rho
    out_of_region: bool = False  # set when a root falls outside (-1, 1)


def quadratic_roots(s: float, p: float) -> tuple[float, float]:
    """Ordered real roots of z^2 - s z + p = 0.

    Discriminants in (-1e-10, 0) are clamped to zero (double root near
    theta = rho); genuinely negative ones raise NegativeDiscriminant, and
    one that overflows float64 raises DomainError.  The larger root in
    magnitude is formed without cancellation and the other as p over it
    (Vieta), so a root near zero keeps its relative accuracy.
    """
    disc = s * s - 4.0 * p
    if not math.isfinite(disc):
        raise DomainError("the discriminant of the recovery quadratic overflows float64 for these estimates")
    if disc < 0.0:
        if disc > -DISCRIMINANT_CLAMP:
            disc = 0.0
        else:
            raise NegativeDiscriminant(
                "estimates are inconsistent with a real parameter pair "
                "(insufficient sample size or model misfit)"
            )
    if disc == 0.0:
        return s / 2.0, s / 2.0
    big = (s + math.copysign(math.sqrt(disc), s)) / 2.0
    return tuple(sorted((p / big, big)))


def _sum_and_product(theta_hat: float, rho_hat: float) -> tuple[float, float]:
    """s_hat = theta_hat + rho_hat and p_hat = rho_hat / theta_hat; a |theta_hat| at or below THETA_EPS raises ThetaNearZero."""
    if abs(theta_hat) <= THETA_EPS:
        raise ThetaNearZero("cannot form rho_hat/theta_hat with a vanishing AR estimate")
    return theta_hat + rho_hat, rho_hat / theta_hat


def recover_params(theta_hat: float, rho_hat: float, convention: str = CONVENTIONS[0]) -> RecoveredParams:
    """Solve for the parameter pair behind the estimator limits.

    Exact at the limit points: feeding the closed-form limits of the two
    estimators returns the true (theta, rho) up to rounding.
    """
    if convention not in CONVENTIONS:
        raise DomainError(f"convention must be one of {CONVENTIONS}")
    s_hat, p_hat = _sum_and_product(theta_hat, rho_hat)
    lo, hi = quadratic_roots(s_hat, p_hat)
    theta_rec, rho_rec = (lo, hi) if convention == CONVENTIONS[0] else (hi, lo)
    return RecoveredParams(
        theta_rec=theta_rec,
        rho_rec=rho_rec,
        convention=convention,
        s_hat=s_hat,
        p_hat=p_hat,
        out_of_region=not (abs(lo) < 1.0 and abs(hi) < 1.0),
    )


def recover_sigma2(theta_hat: float, rho_hat: float, sigma2_hat: float) -> float:
    """Undo the asymptotic bias of the residual variance estimator.

    Multiplies sigma2_hat by (1 - p)(1 + p)^3 / ((1 + p)^2 - (s p)^2) with
    s = theta_hat + rho_hat and p = rho_hat / theta_hat; the factor is the
    exact reciprocal of the estimator's limit-to-sigma2 ratio.  Estimates
    for which the correction or its product overflows float64 raise
    DomainError.
    """
    s_hat, p_hat = _sum_and_product(theta_hat, rho_hat)
    try:
        denom = (1.0 + p_hat) ** 2 - (s_hat * p_hat) ** 2
        if denom <= 0.0:
            raise DegenerateDenominator("variance correction factor is undefined for these estimates")
        sigma2 = (1.0 - p_hat) * (1.0 + p_hat) ** 3 / denom * sigma2_hat
    except OverflowError:  # a float ** raises where a float * gives inf
        sigma2 = math.inf
    if not math.isfinite(sigma2):
        raise DomainError("the variance correction overflows float64 for these estimates")
    return sigma2
