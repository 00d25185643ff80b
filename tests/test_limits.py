import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dwlab import limits
from dwlab.errors import OutOfRegion
from dwlab.testing import critical_statistic, rho_weights

from oracles import (
    bartlett_gamma,
    d_star_frac,
    ell1_frac,
    ell2_frac,
    ell_frac,
    gamma_det_frac,
    rel_close,
    rho_star_frac,
    sigma_hat_limit_frac,
    theta_star_frac,
    var_rho_frac,
    var_theta_frac,
)

inside = st.floats(min_value=-0.95, max_value=0.95)


def grid(step=0.19):
    vals = np.arange(-0.95 + step / 2, 0.95, step)
    return [(float(t), float(r)) for t in vals for r in vals]


class TestPointValues:
    def test_theta_star_examples(self):
        assert limits.theta_star(0.0, 0.0) == 0.0
        assert limits.theta_star(0.5, 0.0) == 0.5
        assert rel_close(limits.theta_star(0.5, 0.3), 16 / 23, 1e-14)

    def test_rho_star_and_d_star_examples(self):
        assert limits.rho_star(0.5, 0.0) == 0.0
        assert limits.d_star(0.5, 0.0) == 2.0
        assert limits.rho_star(0.4, -0.4) == 0.0
        assert limits.d_star(0.4, -0.4) == 2.0
        assert rel_close(limits.rho_star(0.5, 0.3), 0.12 / 1.15, 1e-14)
        assert rel_close(limits.d_star(0.5, 0.3), 2.0 * (1.0 - 0.12 / 1.15), 1e-14)

    def test_var_theta_examples(self):
        assert limits.var_theta(0.5, 0.0) == pytest.approx(0.75, abs=1e-15)
        # on the critical line the variance reduces to (1 + t^2)/(1 - t^2)
        assert rel_close(limits.var_theta(0.4, -0.4), 29 / 21, 1e-13)
        assert rel_close(limits.var_theta(0.5, 0.3), 4641 / 12167, 1e-13)

    def test_var_rho_examples(self):
        assert limits.var_rho(0.5, 0.0) == pytest.approx(0.25, abs=1e-15)
        assert rel_close(limits.var_rho(0.4, -0.4), 29696 / 840000, 1e-13)
        assert rel_close(limits.var_rho(0.5, 0.3), 2343977 / 4866800, 1e-13)
        assert limits.var_d(0.5, 0.3) == 4.0 * limits.var_rho(0.5, 0.3)

    def test_gamma_examples(self):
        g = limits.gamma_matrix(0.5, 0.0)
        assert np.allclose(g, [[0.75, 0.0], [0.0, 0.25]], atol=1e-15)
        det_crit = np.linalg.det(limits.gamma_matrix(0.4, -0.4))
        assert abs(det_crit) <= 1e-12
        det = np.linalg.det(limits.gamma_matrix(0.5, 0.3))
        assert rel_close(det, 1262352 / 6996025, 1e-10)

    def test_second_moment_limits(self):
        assert limits.ell(0.0, 0.0, 1.0) == 1.0
        assert limits.ell1(0.0, 0.0, 1.0) == 0.0
        assert limits.ell2(0.0, 0.0, 1.0) == 0.0
        assert rel_close(limits.ell(0.5, 0.3, 1.0), 9200 / 4641, 1e-13)
        assert rel_close(limits.ell1(0.5, 0.3, 1.0), 6400 / 4641, 1e-13)
        assert rel_close(limits.ell2(0.5, 0.3, 1.0), 3740 / 4641, 1e-13)

    def test_sigma_hat_limit_examples(self):
        assert limits.sigma_hat_limit(0.0, 0.0, 1.0) == 1.0
        assert limits.sigma_hat_limit(0.5, 0.0, 1.0) == 1.0
        assert rel_close(limits.sigma_hat_limit(0.5, 0.3, 1.0), 209296 / 206839, 1e-13)


class TestAgainstExactArithmetic:
    """float64 implementation vs the same formulas in exact rationals."""

    def test_all_functions_on_grid(self):
        for t, r in grid():
            assert rel_close(limits.theta_star(t, r), float(theta_star_frac(t, r)), 1e-14)
            assert rel_close(limits.rho_star(t, r), float(rho_star_frac(t, r)), 1e-14)
            assert rel_close(limits.d_star(t, r), float(d_star_frac(t, r)), 1e-14)
            assert rel_close(limits.var_theta(t, r), float(var_theta_frac(t, r)), 1e-13)
            assert rel_close(limits.var_rho(t, r), float(var_rho_frac(t, r)), 1e-13)
            for s2 in (0.5, 1.0, 3.0):
                assert rel_close(limits.ell(t, r, s2), float(ell_frac(t, r, s2)), 1e-13)
                assert rel_close(limits.ell1(t, r, s2), float(ell1_frac(t, r, s2)), 1e-13)
                assert rel_close(limits.ell2(t, r, s2), float(ell2_frac(t, r, s2)), 1e-13)
                assert rel_close(
                    limits.sigma_hat_limit(t, r, s2), float(sigma_hat_limit_frac(t, r, s2)), 1e-13
                )


def close(got: float, want: float, scale: float = 0.0) -> bool:
    """|got - want| <= 1e-11 * max(|got|, |want|, scale): relative, unless the oracle's own rounding is larger."""
    return abs(got - want) <= 1e-11 * max(abs(got), abs(want), scale)


def assert_bartlett(t: float, r: float) -> None:
    """Every limit and asymptotic variance of ``limits`` at (t, r) agrees with :func:`bartlett_gamma`."""
    r1, _, g, gamma = bartlett_gamma(t, r)
    a = limits.asymptotics(t, r)
    assert close(a.theta_star, r1)
    # the oracle forms g from r1^2 - r2 = theta*rho*(1 - r1^2), which cancels when theta*rho << r1^2
    assert close(a.rho_star, g, abs(r1) ** 3)
    assert close(a.d_star, 2.0 * (1.0 - g))
    assert close(a.var_theta, gamma[0, 0])
    assert close(a.var_rho, gamma[1, 1])
    assert close(a.var_d, 4.0 * gamma[1, 1])
    assert np.abs(a.gamma - gamma).max() <= 1e-11 * np.abs(gamma).max()


class TestAgainstBartlett:
    """The closed forms against a second derivation: Bartlett's formula for X as an AR(2) process.

    The exact-arithmetic oracles transcribe the same formulas as ``limits``;
    this one derives them from the autocorrelations, so it also catches an
    error that a formula and its transcription share.
    """

    @given(inside, inside)
    @settings(max_examples=300)
    @example(0.95, 0.95)
    @example(-0.95, -0.95)
    @example(0.95, -0.95)
    @example(-0.95, 0.95)
    @example(0.95, 0.0)
    @example(0.0, -0.95)
    @example(0.0, 0.0)
    @example(0.5, 0.3)
    def test_limits_and_covariance(self, t, r):
        assert_bartlett(t, r)

    @given(st.floats(min_value=0.01, max_value=0.95))
    @example(0.01)
    @example(0.5)
    @example(0.95)
    def test_critical_line(self, t):
        # on theta = -rho, the theta^2 plug-in's limit is r2 and rho_hat's limit is 0; the critical-case
        # statistic n (dw - 2)^2 / (4 t^2 (1 + t) / (1 - t)) must divide by var_d = 4 var_rho there
        for theta in (t, -t):
            assert_bartlett(theta, -theta)
            r1, r2, g, gamma = bartlett_gamma(theta, -theta)
            assert (r1, g) == (0.0, 0.0) and r2 == theta * theta
            assert close(1.0 / critical_statistic(1, 3.0, r2), 4.0 * gamma[1, 1])

    def test_rho_test_normaliser(self):
        # under rho = rho0, (theta_hat, rho_hat) tends to (r1, g), so theta_tilde = theta_hat + rho_hat - rho0
        # tends to theta.  To first order dw - d_tilde is -2 rho_hat + 2 r(theta_tilde), with
        # r(t) = rho0 t (t + rho0) / (1 + rho0 t), so its asymptotic variance tau^2 is grad' Gamma grad with
        # grad = 2 (r'(theta), r'(theta) - 1); measured to agree within 5.0e-14 at the 1890 points
        points = np.random.default_rng(14).uniform(-0.9, 0.9, (2000, 2))
        points = points[np.abs(points.sum(axis=1)) >= 0.05]  # tau^2 vanishes on the critical line theta = -rho0
        for theta, rho0 in points:
            r1, _, g, gamma = bartlett_gamma(theta, rho0)
            slope = rho0 * (2.0 * theta + rho0 + rho0 * theta * theta) / (1.0 + rho0 * theta) ** 2
            grad = 2.0 * np.array([slope, slope - 1.0])
            assert close(rho_weights(r1, g, rho0).tau2, grad @ gamma @ grad), (theta, rho0)

    @given(inside, inside, st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=300)
    @example(0.95, 0.95, 1.0)
    @example(-0.95, -0.95, 1.0)
    @example(0.95, -0.95, 2.0)
    @example(0.0, 0.0, 1.0)
    @example(0.5, 0.3, 1.0)
    def test_second_moments_are_the_ar2_autocovariances(self, t, r, s2):
        # X is AR(2) with phi1 = theta + rho and phi2 = -theta*rho, driven by noise of variance sigma2: gamma(0)
        # in closed form, gamma(1) and gamma(2) from the autocorrelations of the Bartlett oracle.  ell1, ell2 and
        # sigma_hat_limit can be small beside ell, so every gap is relative to ell
        phi1, phi2 = t + r, -t * r
        gamma0 = s2 * (1.0 - phi2) / ((1.0 + phi2) * ((1.0 - phi2) ** 2 - phi1 * phi1))
        r1, r2, _, _ = bartlett_gamma(t, r)
        gamma1, gamma2 = gamma0 * r1, gamma0 * r2
        a = limits.asymptotics(t, r, s2)
        assert close(a.ell, gamma0)
        assert close(a.ell1, gamma1, a.ell)
        assert close(a.ell2, gamma2, a.ell)
        # the residual X_k - theta_star X_{k-1} has lag-0 and lag-1 autocovariances c0 and c1; rho_hat's limit
        # c1 / c0 leaves the second-stage residual variance c0 - c1^2 / c0
        ts = a.theta_star
        c0 = gamma0 * (1.0 + ts * ts) - 2.0 * ts * gamma1
        c1 = gamma1 * (1.0 + ts * ts) - ts * (gamma0 + gamma2)
        assert close(a.sigma_hat_limit, c0 - c1 * c1 / c0, a.ell)


class TestProperties:
    @given(inside, inside)
    def test_symmetry_under_swap(self, t, r):
        assert rel_close(limits.theta_star(t, r), limits.theta_star(r, t), 1e-14)
        assert rel_close(limits.rho_star(t, r), limits.rho_star(r, t), 1e-14)
        assert rel_close(limits.d_star(t, r), limits.d_star(r, t), 1e-14)
        assert rel_close(limits.var_theta(t, r), limits.var_theta(r, t), 1e-13)
        assert rel_close(limits.var_rho(t, r), limits.var_rho(r, t), 1e-13)

    @given(inside)
    def test_critical_line_specialization(self, t):
        vt = (1.0 + t * t) / (1.0 - t * t)
        vr = t**4 * (1.0 + t * t) / (1.0 - t * t)
        assert rel_close(limits.var_theta(t, -t), vt, 1e-12)
        assert rel_close(limits.var_rho(t, -t), vr, 1e-12)

    @given(inside, inside, st.floats(min_value=0.01, max_value=100.0))
    def test_sigma2_linearity(self, t, r, s2):
        one = limits.sigma_hat_limit(t, r, 1.0)
        assert rel_close(limits.sigma_hat_limit(t, r, s2), s2 * one, 1e-13)
        assert rel_close(limits.ell(t, r, s2), s2 * limits.ell(t, r, 1.0), 1e-13)

    def test_gamma_positive_semidefinite_on_grid(self):
        for t, r in grid():
            eigs = np.linalg.eigvalsh(limits.gamma_matrix(t, r))
            assert eigs.min() >= -1e-12

    def test_det_identity_on_grid(self):
        # det(Gamma) = var_theta * (theta+rho)^2 * (1-theta*rho) / (1+theta*rho),
        # checked against the exact determinant; the matrix is singular exactly
        # on the critical line theta = -rho.
        from fractions import Fraction

        for t, r in grid():
            direct = float(gamma_det_frac(t, r))
            tf, rf = Fraction(t), Fraction(r)
            closed = float(var_theta_frac(t, r) * (tf + rf) ** 2 * (1 - tf * rf) / (1 + tf * rf))
            impl = float(np.linalg.det(limits.gamma_matrix(t, r)))
            assert abs(closed - direct) <= 1e-12 * max(1.0, abs(direct))
            assert abs(impl - direct) <= 1e-10 * max(1.0, abs(direct))

    @given(inside, inside)
    def test_theta_star_inside_unit_interval(self, t, r):
        assert abs(limits.theta_star(t, r)) < 1.0

    def test_aggregate_consistency(self):
        a = limits.asymptotics(0.5, 0.3, 2.0)
        assert rel_close(a.rho_star, 0.5 * 0.3 * a.theta_star, 1e-14)
        assert a.d_star == 2.0 * (1.0 - a.rho_star)
        assert a.var_d == 4.0 * a.var_rho
        assert rel_close(a.ell1, a.theta_star * a.ell, 1e-14)
        assert a.gamma[0][1] == pytest.approx(0.5 * 0.3 * a.var_theta, rel=1e-14)


class TestDomain:
    @pytest.mark.parametrize("t,r", [(1.0, 0.3), (-1.0, 0.3), (1.0 - 1e-10, 0.0), (0.0, 0.99999999999)])
    def test_boundary_rejected(self, t, r):
        with pytest.raises(OutOfRegion):
            limits.theta_star(t, r)
        with pytest.raises(OutOfRegion):
            limits.var_rho(t, r)

    def test_sigma2_rejected(self):
        with pytest.raises(OutOfRegion):
            limits.ell(0.5, 0.3, 0.0)
        with pytest.raises(OutOfRegion):
            limits.sigma_hat_limit(0.5, 0.3, -1.0)

    def test_interior_accepted(self):
        limits.theta_star(0.95, -0.95)
