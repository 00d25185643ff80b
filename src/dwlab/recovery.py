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

from .errors import DegenerateDenominator, DomainError, NegativeDiscriminant, ThetaNearZero
from .estimators import THETA_EPS

DISCRIMINANT_CLAMP = 1e-10  # rounding guard: tiny negative discriminants mean a double root

CONVENTIONS = ("theta_less", "theta_greater")


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
    theta = rho); genuinely negative ones raise NegativeDiscriminant.
    """
    disc = s * s - 4.0 * p
    if disc < 0.0:
        if disc > -DISCRIMINANT_CLAMP:
            disc = 0.0
        else:
            raise NegativeDiscriminant(
                "estimates are inconsistent with a real parameter pair "
                "(insufficient sample size or model misfit)"
            )
    root = math.sqrt(disc)
    return (s - root) / 2.0, (s + root) / 2.0


def recover_params(theta_hat: float, rho_hat: float, convention: str = "theta_less") -> RecoveredParams:
    """Solve for the parameter pair behind the estimator limits.

    Exact at the limit points: feeding the closed-form limits of the two
    estimators returns the true (theta, rho) up to rounding.
    """
    if convention not in CONVENTIONS:
        raise DomainError(f"convention must be one of {CONVENTIONS}")
    if abs(theta_hat) <= THETA_EPS:
        raise ThetaNearZero("cannot form rho_hat/theta_hat with a vanishing AR estimate")
    s_hat = theta_hat + rho_hat
    p_hat = rho_hat / theta_hat
    lo, hi = quadratic_roots(s_hat, p_hat)
    theta_rec, rho_rec = (lo, hi) if convention == "theta_less" else (hi, lo)
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
    exact reciprocal of the estimator's limit-to-sigma2 ratio.
    """
    if abs(theta_hat) <= THETA_EPS:
        raise ThetaNearZero("cannot form rho_hat/theta_hat with a vanishing AR estimate")
    s_hat = theta_hat + rho_hat
    p_hat = rho_hat / theta_hat
    denom = (1.0 + p_hat) ** 2 - (s_hat * p_hat) ** 2
    if denom <= 0.0:
        raise DegenerateDenominator("variance correction factor is undefined for these estimates")
    return (1.0 - p_hat) * (1.0 + p_hat) ** 3 / denom * sigma2_hat
