from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dwlab.dist import chi2_quantile1
import dwlab.testing
from dwlab.errors import (
    DegenerateDenominator,
    DegenerateStatistic,
    DegenerateTau,
    DegenerateTheta,
    DomainError,
)
from dwlab.model import ModelParams, NoiseSpec, simulate
from dwlab.montecarlo import McConfig, empirical_size_power
from dwlab.testing import (
    auto_test,
    check_rho0,
    critical_case_test,
    critical_statistic,
    rho_test,
    rho_weights,
    rho_zero_test,
    zero_statistic,
    _outcome,
)

from oracles import rel_close


def path(theta, rho, n=5000, seed=42, sigma2=1.0):
    return simulate(ModelParams(theta=theta, rho=rho, sigma2=sigma2), NoiseSpec(), n, seed).x


class TestStatisticFormulas:
    def test_critical_statistic_vanishes_at_two(self):
        assert critical_statistic(1000, 2.0, 0.16) == 0.0

    def test_critical_statistic_value(self):
        t = Fraction(4, 25)
        dw = Fraction(19, 10)
        expected = 1000 * (1 - t) / (4 * t * t * (1 + t)) * (dw - 2) ** 2
        got = critical_statistic(1000, 1.9, 0.16)
        assert rel_close(got, float(expected), 1e-12)

    @pytest.mark.parametrize("bad", [0.0, -0.2, 1.0, 1.5])
    def test_critical_statistic_degenerate(self, bad):
        with pytest.raises(DegenerateStatistic):
            critical_statistic(1000, 1.9, bad)

    def test_zero_statistic_vanishes_at_two(self):
        assert zero_statistic(1000, 2.0, 0.5) == 0.0

    def test_zero_statistic_value(self):
        assert rel_close(zero_statistic(800, 1.8, 0.5), 800 * 0.04 / 1.0, 1e-12)

    def test_zero_statistic_degenerate_theta(self):
        with pytest.raises(DegenerateTheta):
            zero_statistic(1000, 1.9, 0.0)
        with pytest.raises(DegenerateTheta):
            zero_statistic(1000, 1.9, 1e-9)


class TestWeightsConstruction:
    def test_rho0_zero_shortcut(self):
        w = rho_weights(0.5, 0.1, 0.0)
        assert w.a_w == 0.0
        assert w.b_w == 1.0
        assert w.rho_tilde == 0.0
        assert w.d_tilde == 2.0
        assert rel_close(w.tau2, 4.0 * 0.25, 1e-14)

    def test_exact_arithmetic_case(self):
        th, rh, r0 = Fraction(1, 2), Fraction(0), Fraction(3, 10)
        tt = th + rh - r0
        rt = r0 * tt
        alpha = (1 - tt * tt) * (1 - rt) * (1 - r0 * r0) / (1 + rt) ** 3
        beta = (1 - rt) / (1 + rt) ** 3 * (
            (tt + r0) ** 2 * (1 + rt) ** 2 + rt * rt * (1 - tt * tt) * (1 - r0 * r0)
        )
        a = -r0 * (2 * th + rh - r0)
        b = 1 - r0 * th
        quad = a * a * alpha + 2 * a * b * rt * alpha + b * b * beta
        tau2 = 4 / (1 + rt) ** 2 * quad
        rho_t = r0 * tt * (tt + r0) / (1 + r0 * tt)

        w = rho_weights(0.5, 0.0, 0.3)
        assert rel_close(w.theta_tilde, float(tt), 1e-14)
        assert rel_close(w.rho_tilde, float(rho_t), 1e-14)
        assert rel_close(w.d_tilde, float(2 * (1 - rho_t)), 1e-14)
        assert rel_close(w.a_w, float(a), 1e-14)
        assert rel_close(w.b_w, float(b), 1e-14)
        assert rel_close(w.alpha_hat, float(alpha), 1e-13)
        assert rel_close(w.beta_hat, float(beta), 1e-13)
        assert rel_close(w.tau2, float(tau2), 1e-13)
        assert w.gamma_hat[0, 1] == w.gamma_hat[1, 0]

    def test_degenerate_tau_at_critical_plugins(self):
        # theta_hat = rho_hat = 0 puts the weight vector in the null space of
        # the rank-one plug-in covariance, for any rho0
        with pytest.raises(DegenerateTau):
            rho_weights(0.0, 0.0, 0.3)

    def test_rho0_domain(self):
        with pytest.raises(DomainError):
            rho_weights(0.5, 0.1, 1.0)
        with pytest.raises(DomainError):
            rho_weights(0.5, 0.1, -1.2)


RHO0_RANGE = "rho0 must lie in (-1, 1)"


class TestRho0Check:
    @pytest.mark.parametrize(
        "rho0, message",
        [
            (None, "test kind 'rho0' needs a rho0 value"),
            (1.0, RHO0_RANGE),
            (-1.2, RHO0_RANGE),
            (1.5, RHO0_RANGE),
            (float("nan"), RHO0_RANGE),
        ],
    )
    def test_every_entry_point_rejects_before_the_fit(self, monkeypatch, rho0, message):
        def no_fit(path):
            raise AssertionError("estimate_all was called")

        x = path(0.4, -0.4, seed=15)
        monkeypatch.setattr(dwlab.testing, "estimate_all", no_fit)
        for run in (
            lambda: check_rho0(rho0),
            lambda: rho_weights(0.5, 0.1, rho0),
            lambda: rho_test(x, rho0, 0.05),
            lambda: auto_test(x, rho0, 0.05),
        ):
            with pytest.raises(DomainError) as exc:
                run()
            assert (type(exc.value), str(exc.value)) == (DomainError, message)

    @pytest.mark.parametrize("rho0", [0.0, -0.999, 0.5])
    def test_open_interval_passes(self, rho0):
        assert check_rho0(rho0) is None

    def test_critical_branch_reports_rho0_not_its_square(self):
        # this path takes the critical branch, where rho0^2 = 2.25 would replace the theta^2 plug-in
        x = path(0.4, -0.4, seed=15)
        assert auto_test(x, 0.4, 0.05).branch == "critical"
        with pytest.raises(DomainError, match=r"^rho0 must lie in \(-1, 1\)$"):
            auto_test(x, 1.5, 0.05)


class TestOutcomeInvariants:
    @given(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.005, max_value=0.6),
    )
    def test_reject_iff_p_below_alpha(self, stat, alpha):
        out = _outcome(stat, alpha, "rho_equals_zero")
        assert out.reject == (out.statistic > out.threshold)
        assert out.reject == (out.p_value < out.alpha)
        assert out.threshold == chi2_quantile1(1.0 - alpha)
        assert 0.0 <= out.p_value <= 1.0

    def test_p_value_keeps_the_far_tail(self):
        out = _outcome(80.0, 0.05, "rho_equals_zero")
        assert out.reject
        assert 3.7e-19 < out.p_value < 3.8e-19

    def test_alpha_validated(self):
        x = path(0.5, 0.0, n=500)
        for alpha in (0.0, 1.0, -0.1):
            with pytest.raises(DomainError):
                rho_zero_test(x, alpha)


class TestOnSimulatedPaths:
    def test_critical_case_accepts_under_null(self):
        out = critical_case_test(path(0.4, -0.4, seed=7), 0.05)
        assert out.kind == "critical_case"
        assert not out.reject

    def test_critical_case_rejects_under_alternative(self):
        out = critical_case_test(path(0.5, 0.3, n=10**5, seed=8), 0.05)
        assert out.reject
        assert out.p_value < 1e-6

    def test_zero_test_accepts_when_uncorrelated(self):
        out = rho_zero_test(path(0.5, 0.0, seed=9), 0.05)
        assert out.kind == "rho_equals_zero"
        assert not out.reject

    def test_zero_test_rejects_when_correlated(self):
        out = rho_zero_test(path(0.5, 0.3, seed=10), 0.05)
        assert out.reject

    def test_rho_test_accepts_true_null(self):
        out, w = rho_test(path(0.5, 0.3, seed=11), 0.3, 0.05)
        assert out.kind == "rho_equals_rho0"
        assert not out.reject
        assert w.tau2 > 0.0

    def test_rho_test_rejects_false_null(self):
        out, _ = rho_test(path(0.5, 0.3, seed=12), 0.0, 0.05)
        assert out.reject

    def test_rho_test_with_zero_matches_dedicated_test(self):
        for seed in (1, 2, 3, 4, 5):
            x = path(0.5, 0.2, n=2000, seed=seed)
            general, _ = rho_test(x, 0.0, 0.05)
            dedicated = rho_zero_test(x, 0.05)
            assert rel_close(general.statistic, dedicated.statistic, 1e-10)
            assert general.reject == dedicated.reject

    def test_statistic_grows_linearly_under_alternative(self):
        stats = [critical_case_test(path(0.5, 0.3, n=n, seed=13), 0.05).statistic for n in (2000, 8000, 32000)]
        assert stats[0] < stats[1] < stats[2]
        # roughly linear growth: quadrupling n multiplies the statistic by ~4
        assert 2.0 < stats[1] / stats[0] < 8.0
        assert 2.0 < stats[2] / stats[1] < 8.0


class TestSingleFit:
    def _count_fits(self, monkeypatch):
        calls = []
        fit = dwlab.testing.estimate_all

        def counting(path):
            calls.append(1)
            return fit(path)

        monkeypatch.setattr(dwlab.testing, "estimate_all", counting)
        return calls

    @pytest.mark.parametrize("theta, rho, rho0", [(0.5, 0.3, 0.3), (0.4, -0.4, 0.4)])
    def test_auto_test_fits_once(self, monkeypatch, theta, rho, rho0):
        calls = self._count_fits(monkeypatch)
        auto_test(path(theta, rho, seed=14), rho0, 0.05)
        assert len(calls) == 1

    def test_each_test_fits_once(self, monkeypatch):
        calls = self._count_fits(monkeypatch)
        x = path(0.5, 0.3, seed=14)
        critical_case_test(x, 0.05)
        rho_test(x, 0.3, 0.05)
        rho_zero_test(x, 0.05)
        assert len(calls) == 3

    def test_zero_prefix_needs_the_theta_sq_plugin(self):
        # X_0..X_{n-2} all zero: theta_hat exists, the lag-2 plug-in does not,
        # and every test is computed from the full fit
        x = np.zeros(10)
        x[-2:] = (1.0, 0.5)
        for run in (lambda: rho_test(x, 0.3, 0.05), lambda: rho_zero_test(x, 0.05)):
            with pytest.raises(DegenerateDenominator):
                run()


class TestAutoFlow:
    def test_general_branch(self):
        auto = auto_test(path(0.5, 0.3, seed=14), 0.3, 0.05)
        assert auto.preliminary.reject
        assert auto.branch == "general"
        assert auto.weights is not None
        assert not auto.final.reject

    def test_critical_branch_substitutes_rho0_squared(self):
        x = path(0.4, -0.4, seed=15)
        auto = auto_test(x, 0.4, 0.05)
        assert not auto.preliminary.reject
        assert auto.branch == "critical"
        assert auto.weights is None
        expected = critical_statistic(len(x) - 1, _dw_of(x), 0.4 * 0.4)
        assert rel_close(auto.final.statistic, expected, 1e-12)
        assert not auto.final.reject

    def test_critical_branch_with_zero_rho0_degenerates(self):
        x = path(0.4, -0.4, seed=16)
        assert auto_test(x, 0.4, 0.05).branch == "critical"
        for rho0 in (0.0, -0.0):
            with pytest.raises(DegenerateStatistic) as exc:
                auto_test(x, rho0, 0.05)
            assert str(exc.value) == "theta = -rho accepted: the rho = rho0 test is undefined at rho0 = 0"


def _dw_of(x):
    from dwlab.estimators import dw_statistic, estimate_theta, residuals

    return dw_statistic(residuals(x, estimate_theta(x)))


class TestPower:
    def test_power_is_monotone_in_n(self):
        # empirical power of the rho = 0 test under (0.5, 0.3), three scales
        rates = []
        for n in (500, 2000, 8000):
            cfg = McConfig(
                params=ModelParams(theta=0.5, rho=0.3),
                noise=NoiseSpec(),
                n=n,
                replicates=1000,
                base_seed=1234,
                alpha=0.05,
            )
            rates.append(empirical_size_power("zero", cfg).body["rejection_rate"])
        # allow one inversion within two binomial standard deviations
        sigma = np.sqrt(0.25 / 1000)
        violations = sum(1 for a, b in zip(rates, rates[1:]) if b < a - 2 * sigma)
        assert violations == 0, rates
        assert rates[-1] >= 0.99
