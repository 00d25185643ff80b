import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dwlab import limits
from dwlab.errors import DegenerateDenominator, DomainError, NegativeDiscriminant, ThetaNearZero
from dwlab.estimators import estimate_all
from dwlab.model import ModelParams, NoiseSpec, simulate
from dwlab.recovery import quadratic_roots, recover_params, recover_sigma2

from oracles import rel_close

inside = st.floats(min_value=-0.85, max_value=0.85)


class TestQuadraticRoots:
    def test_symmetric_roots(self):
        lo, hi = quadratic_roots(0.0, -0.25)
        assert (lo, hi) == (-0.5, 0.5)

    def test_double_root_clamp(self):
        lo, hi = quadratic_roots(1.0, 0.25 + 1e-12)
        assert lo == hi == 0.5

    def test_negative_discriminant(self):
        with pytest.raises(NegativeDiscriminant):
            quadratic_roots(0.1, 0.5)

    @pytest.mark.parametrize("s, p", [(2.4e158, -1.7e-177), (1.0, -1e308), (1.0, 1e308)])
    def test_an_overflowing_discriminant_is_a_domain_error(self, s, p):
        # an inf discriminant would make the larger root inf and the other zero
        with pytest.raises(DomainError, match="discriminant of the recovery quadratic overflows float64"):
            quadratic_roots(s, p)


class TestRecoverParams:
    def test_exact_limits_recover_the_pair(self):
        th_lim = limits.theta_star(0.3, 0.5)
        rh_lim = limits.rho_star(0.3, 0.5)
        rec = recover_params(th_lim, rh_lim, "theta_less")
        assert rec.s_hat == pytest.approx(0.8, abs=1e-14)
        assert rec.p_hat == pytest.approx(0.15, abs=1e-14)
        assert rec.theta_rec == pytest.approx(0.3, abs=1e-10)
        assert rec.rho_rec == pytest.approx(0.5, abs=1e-10)
        assert not rec.out_of_region

    @given(inside, inside)
    @settings(max_examples=200)
    def test_round_trip_on_the_region(self, theta, rho):
        assume(abs(theta) > 0.05 and abs(rho) > 0.05)
        assume(abs(theta + rho) > 0.05)  # away from the critical line
        assume(abs(theta - rho) > 1e-3)  # distinct roots
        rec = recover_params(
            limits.theta_star(theta, rho), limits.rho_star(theta, rho), "theta_less"
        )
        lo, hi = min(theta, rho), max(theta, rho)
        assert rel_close(rec.theta_rec, lo, 1e-10)
        assert rel_close(rec.rho_rec, hi, 1e-10)
        # Vieta consistency of the returned pair
        assert rel_close(rec.theta_rec + rec.rho_rec, rec.s_hat, 1e-12)
        assert rel_close(rec.theta_rec * rec.rho_rec, rec.p_hat, 1e-12)

    @pytest.mark.parametrize("theta, rho", [(0.5, 1e-8), (-0.7, 1e-9), (0.3, -2e-9), (0.5, 1e-6)])
    def test_a_small_root_keeps_its_digits(self, theta, rho):
        # (s - sqrt(disc)) / 2 cancels when |p| << s^2: it was 1e-12 to 2.7e-8 off, relative, at these points
        rec = recover_params(limits.theta_star(theta, rho), limits.rho_star(theta, rho), "theta_less")
        for got, want in ((rec.theta_rec, min(theta, rho)), (rec.rho_rec, max(theta, rho))):
            assert abs(got - want) <= 1e-15 * abs(want), (got, want)

    def test_convention_flip_swaps_only(self):
        a = recover_params(0.8, 0.12, "theta_less")
        b = recover_params(0.8, 0.12, "theta_greater")
        assert (a.theta_rec, a.rho_rec) == (b.rho_rec, b.theta_rec)
        assert a.s_hat == b.s_hat and a.p_hat == b.p_hat

    def test_theta_near_zero(self):
        with pytest.raises(ThetaNearZero):
            recover_params(1e-12, 0.1, "theta_less")

    def test_invalid_convention(self):
        with pytest.raises(DomainError):
            recover_params(0.5, 0.1, "largest_first")

    def test_out_of_region_flag(self):
        # s_hat = 2.5, p_hat = 0.25 -> roots ~ (0.1087, 2.3913), one outside (-1, 1)
        rec = recover_params(2.0, 0.5, "theta_less")
        assert rec.out_of_region

    def test_reachable_negative_discriminant(self):
        # theta_hat = rho_hat = 0.5 gives s = 1, p = 1, disc = -3
        with pytest.raises(NegativeDiscriminant):
            recover_params(0.5, 0.5, "theta_less")


class TestRecoverSigma2:
    def test_identity_when_p_zero(self):
        assert recover_sigma2(0.7, 0.0, 1.23) == 1.23

    def test_exact_composition_at_single_point(self):
        sig_limit = limits.sigma_hat_limit(0.5, 0.3, 1.0)
        got = recover_sigma2(
            limits.theta_star(0.5, 0.3), limits.rho_star(0.5, 0.3), sig_limit
        )
        assert abs(got - 1.0) <= 1e-6

    @given(inside, inside, st.floats(min_value=0.2, max_value=5.0))
    @settings(max_examples=200)
    def test_composition_inverts_the_limit(self, theta, rho, sigma2):
        assume(abs(theta) > 0.05)
        assume(abs(theta + rho) > 0.05)
        got = recover_sigma2(
            limits.theta_star(theta, rho),
            limits.rho_star(theta, rho),
            limits.sigma_hat_limit(theta, rho, sigma2),
        )
        assert rel_close(got, sigma2, 1e-10)

    def test_degenerate_denominator(self):
        # rho_hat = -theta_hat makes p = -1 and the correction undefined
        with pytest.raises(DegenerateDenominator):
            recover_sigma2(0.5, -0.5, 1.0)

    def test_theta_near_zero(self):
        with pytest.raises(ThetaNearZero):
            recover_sigma2(0.0, 0.1, 1.0)

    @pytest.mark.parametrize("theta_hat, rho_hat", [(1.0, -5e99), (1.5e-8, 1e160)])
    def test_an_overflowing_correction_is_a_domain_error(self, theta_hat, rho_hat):
        # a Python float ** raises OverflowError where numpy would give inf
        with pytest.raises(DomainError, match="variance correction overflows float64"):
            recover_sigma2(theta_hat, rho_hat, 1.0)

    @pytest.mark.parametrize(
        "theta_hat, rho_hat, sigma2_hat",
        [(2.0, 0.5, 1.5e308), (-2.1, -1.0, 1e294), (0.4745834491658677, -0.9577604722403232, 1.3800334561468393e307)],
    )
    def test_an_overflowing_product_is_a_domain_error(self, theta_hat, rho_hat, sigma2_hat):
        # no power overflows here, but a float * gives inf where ** would raise
        with pytest.raises(DomainError, match="variance correction overflows float64"):
            recover_sigma2(theta_hat, rho_hat, sigma2_hat)


class TestOnSimulatedPath:
    def test_long_path_recovers_parameters(self):
        s = simulate(ModelParams(theta=0.3, rho=0.5), NoiseSpec(), 10**6, 512)
        est = estimate_all(s.x)
        rec = recover_params(est.theta_hat, est.rho_hat, "theta_less")
        sigma2 = recover_sigma2(est.theta_hat, est.rho_hat, est.sigma2_hat)
        assert 0.29 <= rec.theta_rec <= 0.31
        assert 0.49 <= rec.rho_rec <= 0.51
        assert 0.98 <= sigma2 <= 1.02
