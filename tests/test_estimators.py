import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwlab.errors import DegenerateDenominator, DomainError, TooShort
from dwlab.estimators import (
    dw_statistic,
    estimate_all,
    estimate_rho,
    estimate_sigma2,
    estimate_theta,
    estimate_theta_sq,
    residuals,
    running_estimates,
)
from dwlab.model import ModelParams, NoiseSpec, simulate

from oracles import dot_fsum, dw_fsum, rel_close, rho_hat_fsum, sum_fsum, theta_hat_fsum

params_st = st.builds(
    ModelParams,
    theta=st.floats(min_value=-0.9, max_value=0.9),
    rho=st.floats(min_value=-0.9, max_value=0.9),
    sigma2=st.floats(min_value=0.25, max_value=4.0),
    x0=st.floats(min_value=-2.0, max_value=2.0),
    eps0=st.floats(min_value=-2.0, max_value=2.0),
)
kind_st = st.sampled_from(("gaussian", "uniform", "rademacher"))
seed_st = st.integers(min_value=0, max_value=2**32)


def ident_ok(lhs, rhs, tol=1e-10):
    return abs(lhs - rhs) <= tol * max(1.0, abs(lhs), abs(rhs))


class TestHandValues:
    def test_theta_on_noiseless_path(self):
        c = 0.8
        x = c ** np.arange(12)
        assert estimate_theta(x) == pytest.approx(c, abs=1e-12)

    def test_theta_zero_numerator(self):
        assert estimate_theta([0.0, 1.0, 0.0, 1.0, 0.0]) == 0.0

    def test_residuals_identity_theta_zero(self):
        x = np.array([2.0, -1.0, 0.5, 3.0])
        assert np.array_equal(residuals(x, 0.0), x)

    def test_residuals_hand_case(self):
        assert np.array_equal(residuals([2.0, 1.0, 1.0], 1.0), [2.0, -1.0, 0.0])

    def test_rho_constant_residuals(self):
        assert estimate_rho([1.0, 1.0, 1.0, 1.0]) == 1.0
        assert estimate_rho([1.0, -1.0, 1.0, -1.0]) == -1.0

    def test_sigma2_hand_cases(self):
        assert estimate_sigma2(np.zeros(5), 0.7) == 0.0
        assert estimate_sigma2([0.0, 1.0, 1.0], 1.0) == 0.5

    def test_dw_hand_cases(self):
        assert dw_statistic(np.ones(6)) == 0.0
        assert dw_statistic([1.0, -1.0, 1.0, -1.0]) == 3.0

    def test_theta_sq_hand_cases(self):
        c = 0.9
        x = c ** np.arange(10)
        assert estimate_theta_sq(x) == pytest.approx(c * c, abs=1e-12)
        assert estimate_theta_sq([0.0, 1.0, 0.0, 0.0]) == 0.0


class TestGuards:
    def test_too_short(self):
        for fn in (estimate_theta, estimate_rho, dw_statistic, estimate_theta_sq):
            with pytest.raises(TooShort):
                fn([1.0, 2.0, 3.0])
        with pytest.raises(TooShort):
            estimate_sigma2([1.0], 0.0)

    def test_degenerate_denominators(self):
        zeros = np.zeros(10)
        for fn in (estimate_theta, estimate_rho, dw_statistic, estimate_theta_sq):
            with pytest.raises(DegenerateDenominator):
                fn(zeros)
        # zero prefix is enough for the theta denominator
        with pytest.raises(DegenerateDenominator):
            estimate_theta([0.0, 0.0, 0.0, 1.0])

    def test_not_one_dimensional(self):
        with pytest.raises(DomainError):
            estimate_theta(np.zeros((3, 3)))

    @pytest.mark.parametrize(
        "path, name",
        [
            ([1e200, -3e200, 2e200, 1e200, 5e199], "theta_hat"),
            # theta_hat and rho_hat come out 0 (finite / inf); the dw ratio is inf / inf
            ([1e200, 1.0, 1.0, 1.0, 1.0], "dw"),
            ([0.1, 0.4, float("nan"), 0.2, -0.3], "theta_hat"),
        ],
    )
    def test_estimate_all_rejects_non_finite_statistics(self, path, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{name} is not finite"):
                estimate_all(path)


class TestIdentities:
    """Exact algebraic identities between the cumulative sums.

    Every sum on the oracle side is recomputed with compensated summation, so
    the checks hold to 1e-10 relative on any simulated path.
    """

    @given(params_st, kind_st, seed_st)
    @settings(max_examples=30, deadline=None)
    def test_lag_one_decomposition(self, p, kind, seed):
        s = simulate(p, NoiseSpec(kind=kind, sigma2=p.sigma2), 300, seed)
        x, v = s.x, s.v
        n = s.n
        p_n = dot_fsum(x[1:], x[:-1])
        s_prev = dot_fsum(x[:-1], x[:-1])
        m_n = dot_fsum(x[:-1], v)
        lhs = (1.0 + p.theta * p.rho) * p_n
        rhs = (
            (p.theta + p.rho) * s_prev
            + m_n
            + p.theta * p.rho * x[n] * x[n - 1]
            + p.rho * x[0] * (p.eps0 - x[0])
        )
        assert ident_ok(lhs, rhs)

    @given(params_st, kind_st, seed_st)
    @settings(max_examples=30, deadline=None)
    def test_lag_two_decomposition(self, p, kind, seed):
        s = simulate(p, NoiseSpec(kind=kind, sigma2=p.sigma2), 300, seed)
        x, v = s.x, s.v
        q_n = dot_fsum(x[2:], x[:-2])
        p_prev = dot_fsum(x[1:-1], x[:-2])
        s_prev2 = dot_fsum(x[:-2], x[:-2])
        n_n = dot_fsum(x[:-2], v[1:])
        rhs = (p.theta + p.rho) * p_prev - p.theta * p.rho * s_prev2 + n_n
        assert ident_ok(q_n, rhs)

    @given(params_st, kind_st, seed_st)
    @settings(max_examples=30, deadline=None)
    def test_residual_sum_expansions(self, p, kind, seed):
        s = simulate(p, NoiseSpec(kind=kind, sigma2=p.sigma2), 300, seed)
        x = s.x
        th = theta_hat_fsum(x)
        res = residuals(x, th)
        i_n = dot_fsum(res[1:], res[:-1])
        j_n = dot_fsum(res, res)
        s_n = dot_fsum(x, x)
        s_prev = dot_fsum(x[:-1], x[:-1])
        p_n = dot_fsum(x[1:], x[:-1])
        p_prev = dot_fsum(x[1:-1], x[:-2])
        q_n = dot_fsum(x[2:], x[:-2])
        assert ident_ok(i_n, p_n - th * (s_prev + q_n) + th * th * p_prev)
        assert ident_ok(j_n, s_n - 2.0 * th * p_n + th * th * s_prev)

    @given(params_st, kind_st, seed_st)
    @settings(max_examples=30, deadline=None)
    def test_dw_linear_relations(self, p, kind, seed):
        s = simulate(p, NoiseSpec(kind=kind, sigma2=p.sigma2), 300, seed)
        x = s.x
        th = theta_hat_fsum(x)
        res = residuals(x, th)
        i_n = dot_fsum(res[1:], res[:-1])
        j_n = dot_fsum(res, res)
        j_prev = j_n - res[-1] ** 2
        k_n = sum_fsum((res[1:] - res[:-1]) ** 2)
        dw = k_n / j_n
        # difference-of-squares expansion of the numerator
        assert ident_ok(k_n, 2.0 * (j_prev - i_n) + res[-1] ** 2 - res[0] ** 2)
        # same relation written on the statistic itself
        assert ident_ok((j_prev + res[-1] ** 2) * dw, 2.0 * (j_prev - i_n) + res[-1] ** 2 - res[0] ** 2)
        # and its affine form through rho_hat and the boundary terms
        rho_hat = i_n / j_prev
        f_n = res[-1] ** 2 / j_n
        xi_n = (res[-1] ** 2 - res[0] ** 2) / j_n
        assert ident_ok(dw, 2.0 * (1.0 - f_n) * (1.0 - rho_hat) + xi_n)

    def test_sum_decompositions_hold_at_every_prefix(self):
        # the lag-1 and lag-2 decompositions are identities for all n >= 2,
        # not only at the endpoint; check every prefix with running sums
        p = ModelParams(theta=0.6, rho=-0.3, sigma2=1.0, x0=0.8, eps0=-0.5)
        s = simulate(p, NoiseSpec(sigma2=1.0), 400, 314)
        x, v = s.x, s.v
        s_run = np.cumsum(x * x)
        lag1 = np.concatenate(([0.0], x[1:] * x[:-1]))
        p_run = np.cumsum(lag1)
        lag2 = np.concatenate(([0.0, 0.0], x[2:] * x[:-2]))
        q_run = np.cumsum(lag2)
        m_run = np.cumsum(np.concatenate(([0.0], x[:-1] * v)))
        n_run = np.cumsum(np.concatenate(([0.0, 0.0], x[:-2] * v[1:])))
        k = np.arange(2, s.n + 1)
        lhs1 = (1.0 + p.theta * p.rho) * p_run[k]
        rhs1 = (
            (p.theta + p.rho) * s_run[k - 1]
            + m_run[k]
            + p.theta * p.rho * x[k] * x[k - 1]
            + p.rho * x[0] * (p.eps0 - x[0])
        )
        scale1 = np.maximum(1.0, np.maximum(np.abs(lhs1), np.abs(rhs1)))
        assert np.all(np.abs(lhs1 - rhs1) <= 1e-10 * scale1)
        rhs2 = (p.theta + p.rho) * p_run[k - 1] - p.theta * p.rho * s_run[k - 2] + n_run[k]
        scale2 = np.maximum(1.0, np.maximum(np.abs(q_run[k]), np.abs(rhs2)))
        assert np.all(np.abs(q_run[k] - rhs2) <= 1e-10 * scale2)


class TestScaleInvariance:
    def test_power_of_two_scaling_is_exact(self):
        s = simulate(ModelParams(theta=0.4, rho=-0.2), NoiseSpec(), 200, 21)
        a = estimate_all(s.x)
        b = estimate_all(4.0 * s.x)
        assert b.theta_hat == a.theta_hat
        assert b.rho_hat == a.rho_hat
        assert b.dw == a.dw
        assert b.sigma2_hat == 16.0 * a.sigma2_hat

    @given(st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_general_scaling(self, c):
        s = simulate(ModelParams(theta=0.4, rho=-0.2), NoiseSpec(), 200, 22)
        a = estimate_all(s.x)
        b = estimate_all(c * s.x)
        assert rel_close(b.theta_hat, a.theta_hat, 1e-12)
        assert rel_close(b.rho_hat, a.rho_hat, 1e-12)
        assert rel_close(b.dw, a.dw, 1e-12)
        assert rel_close(b.sigma2_hat, c * c * a.sigma2_hat, 1e-12)


class TestRunningEstimates:
    def test_constant_path_gives_flat_trajectories(self):
        x = np.full(50, 3.0)
        traj = running_estimates(x, k0=5)
        assert np.all(traj.theta == 1.0)
        assert np.all(traj.rho == 0.0)
        assert np.all(traj.dw == 1.0)

    def test_noiseless_geometric_path(self):
        x = 0.7 ** np.arange(60)
        traj = running_estimates(x, k0=5)
        assert np.allclose(traj.theta, 0.7, atol=1e-12)
        assert np.allclose(traj.rho, 0.0, atol=1e-12)

    def test_matches_one_shot_recomputation(self):
        # brute force: call the one-shot estimators on every prefix
        s = simulate(ModelParams(theta=0.5, rho=0.3, x0=0.4, eps0=-0.1), NoiseSpec(), 80, 33)
        traj = running_estimates(s.x, k0=5)
        for idx, k in enumerate(traj.k):
            prefix = s.x[: k + 1]
            th = estimate_theta(prefix)
            res = residuals(prefix, th)
            assert rel_close(traj.theta[idx], th, 1e-10)
            assert rel_close(traj.rho[idx], estimate_rho(res), 1e-10)
            assert rel_close(traj.dw[idx], dw_statistic(res), 1e-10)

    def test_endpoint_agrees_with_one_shot(self):
        for seed in (1, 2, 3):
            s = simulate(ModelParams(theta=0.6, rho=-0.3), NoiseSpec(), 2000, seed)
            traj = running_estimates(s.x)
            est = estimate_all(s.x)
            assert rel_close(traj.theta[-1], est.theta_hat, 5e-12)
            assert rel_close(traj.rho[-1], est.rho_hat, 5e-12)
            assert rel_close(traj.dw[-1], est.dw, 5e-12)

    def test_endpoint_precision_near_the_unit_root(self):
        # the expanded residual sums cancel as theta_hat approaches 1; the
        # docstring's bound: dw within 1e-6 relative at theta = rho = 0.99
        for seed in (1, 2, 3):
            s = simulate(ModelParams(theta=0.99, rho=0.99), NoiseSpec(), 10**5, seed)
            traj = running_estimates(s.x)
            est = estimate_all(s.x)
            assert abs(traj.theta[-1] / est.theta_hat - 1.0) <= 1e-12
            assert abs(traj.rho[-1] / est.rho_hat - 1.0) <= 1e-7
            assert abs(traj.dw[-1] / est.dw - 1.0) <= 1e-6

    def test_guards(self):
        x = np.arange(20, dtype=float)
        with pytest.raises(DomainError):
            running_estimates(x, k0=2)
        with pytest.raises(TooShort):
            running_estimates(x[:5], k0=10)
        with pytest.raises(DegenerateDenominator):
            running_estimates(np.zeros(30), k0=5)


class TestConsistency:
    def test_theta_hat_near_limit(self):
        s = simulate(ModelParams(theta=0.5, rho=0.3), NoiseSpec(), 10**5, 88)
        assert abs(estimate_theta(s.x) - 16 / 23) <= 0.01

    def test_residual_autocorrelation_vanishes_when_rho_zero(self):
        s = simulate(ModelParams(theta=0.5, rho=0.0), NoiseSpec(), 10**6, 89)
        est = estimate_all(s.x)
        assert abs(est.rho_hat) <= 0.01

    def test_theta_sq_under_opposite_parameters(self):
        s = simulate(ModelParams(theta=0.4, rho=-0.4), NoiseSpec(), 10**5, 90)
        assert abs(estimate_theta_sq(s.x) - 0.16) <= 0.01

    def test_estimate_all_is_consistent(self):
        s = simulate(ModelParams(theta=0.5, rho=0.3), NoiseSpec(), 5000, 91)
        est = estimate_all(s.x)
        assert est.n == 5000
        assert est.residuals[0] == s.x[0]
        assert est.theta_hat == estimate_theta(s.x)
        assert est.dw >= 0.0
        # fsum mirrors of the full pipeline
        th = theta_hat_fsum(s.x)
        res = residuals(s.x, th)
        assert rel_close(est.rho_hat, rho_hat_fsum(res), 1e-12)
        assert rel_close(est.dw, dw_fsum(res), 1e-12)
