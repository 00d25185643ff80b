import itertools
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwlab import estimators
from dwlab.errors import DegenerateDenominator, DomainError, TooShort
from dwlab.estimators import (
    DW_DEGENERATE,
    ESTIMATES,
    RHO_DEGENERATE,
    THETA_DEGENERATE,
    THETA_SQ_DEGENERATE,
    TRAJECTORIES,
    RunningEstimates,
    dw_statistic,
    estimate_all,
    estimate_rho,
    estimate_sigma2,
    estimate_theta,
    estimate_theta_sq,
    fit,
    residuals,
    running_estimates,
    squared_deviation_sum,
)
from dwlab.model import NOISE_KINDS, ModelParams, NoiseSpec, simulate, simulate_paths

from conftest import traced_peak
from oracles import dot_fsum, dw_fsum, estimate_all_reference, prefix_estimate, rel_close, rho_hat_fsum, sum_fsum, theta_hat_fsum

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

    @pytest.mark.parametrize(
        "fn, message",
        [
            (estimate_theta, "sum of squared lagged values is zero"),
            (estimate_rho, "sum of squared lagged residuals is zero"),
            (estimate_theta_sq, "sum of squared twice-lagged values is zero"),
        ],
    )
    def test_slope_messages(self, fn, message):
        block = np.zeros((3, 10))
        block[0] = np.arange(10.0)
        for zeros in (block[1], block):  # in a block, one zero row is enough
            with pytest.raises(DegenerateDenominator) as exc:
                fn(zeros)
            assert str(exc.value) == message

    def test_not_one_dimensional(self):
        # a 2-D array is a block of series for the one-shot estimators, but not for the trajectories
        for bad in (np.zeros((3, 3, 3)), np.float64(1.0)):
            with pytest.raises(DomainError):
                estimate_theta(bad)
        with pytest.raises(DomainError):
            running_estimates(np.zeros((3, 20)))

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


_FITTED = ("theta_hat", "rho_hat", "sigma2_hat", "dw", "theta_sq_hat")


class TestBlocks:
    """estimate_all over a (B, n+1) block: each row fitted as on its own."""

    @pytest.mark.parametrize("n", [3, 4, 7, 8, 64, 101, 127, 128, 999, 5000])
    @pytest.mark.parametrize("rows", [1, 2, 13])
    def test_rows_match_single_series_bit_for_bit(self, n, rows):
        # below 128 values numpy sums with its unrolled loop, above it pairwise
        block = np.stack([simulate(ModelParams(0.5, 0.3), NoiseSpec(), n, seed).x for seed in range(rows)])
        fit = estimate_all(block)
        res = residuals(block, fit.theta_hat)
        assert fit.n == n and res.shape == block.shape
        for i in range(rows):
            one = estimate_all(block[i])
            for name in _FITTED:
                assert type(getattr(one, name)) is float
                assert np.float64(getattr(one, name)).tobytes() == getattr(fit, name)[i].tobytes(), (name, i)
            assert residuals(block[i], one.theta_hat).tobytes() == res[i].tobytes()

    def test_fortran_ordered_block(self):
        block = np.stack([simulate(ModelParams(-0.4, 0.6), NoiseSpec(), 301, seed).x for seed in range(5)])
        fit, fortran = estimate_all(block), estimate_all(np.asfortranarray(block))
        for name in _FITTED:
            assert getattr(fit, name).tobytes() == getattr(fortran, name).tobytes()

    def test_any_degenerate_row_raises(self):
        good = simulate(ModelParams(0.5, 0.3), NoiseSpec(), 20, 1).x
        for fn in (estimate_theta, estimate_rho, dw_statistic, estimate_theta_sq):
            with pytest.raises(DegenerateDenominator):
                fn(np.stack([good, np.zeros_like(good), good]))
        with pytest.raises(TooShort):
            estimate_all(np.zeros((4, 3)))
        bad = good.copy()
        bad[5] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^theta_hat is not finite"):
                estimate_all(np.stack([good, bad]))


def _fit_outcome(fit, x):
    """The bits and types of every field of ``fit(x)``, or the class and message of what it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            est = fit(x)
        except Exception as exc:  # any class: the class and message themselves are compared
            return type(exc), str(exc)
    fields = [getattr(est, name) for name in _FITTED]
    return [(type(value), np.asarray(value).tobytes()) for value in fields] + [est.n]


# what a row of the block is turned into before the fit: every check of the pipeline trips on one of them
_DAMAGE = ("none", "zero", "constant", "zero_head", "zero_but_last", "nan", "inf", "-inf", "huge", "tiny")


class TestFusedKernel:
    """estimate_all, the fit kernel of all five statistics, against the one-statistic functions (tests/oracles.py)."""

    @given(
        params_st,
        kind_st,
        st.lists(seed_st, min_size=1, max_size=4),
        st.integers(min_value=3, max_value=300),
        st.sampled_from(_DAMAGE),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=300),
        st.sampled_from([1e150, 1e153, 1e154, 1.5e154, 1e155, 1e160]),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_bits_or_same_error(self, p, kind, seeds, n, damage, row, at, scale, one_dimensional):
        x = simulate_paths(p, NoiseSpec(kind), n, seeds)
        r, k = row % len(seeds), at % (n + 1)
        if damage == "zero":
            x[r] = 0.0
        elif damage == "constant":
            x[r] = x[r, k]
        elif damage == "zero_head":  # sum X_{k-1}^2 vanishes, or from k = n-1 on only sum X_{k-2}^2
            x[r, : n - (k % 2)] = 0.0
        elif damage == "zero_but_last":  # the residuals but the last vanish
            x[r, :-1] = 0.0
        elif damage in ("nan", "inf", "-inf"):
            x[r, k] = float(damage)
        elif damage == "huge":
            x[r] *= scale
        elif damage == "tiny":  # squares near or below the smallest normal float
            x[r] /= scale
        if one_dimensional:
            x = x[r]
        assert _fit_outcome(estimate_all, x) == _fit_outcome(estimate_all_reference, x)

    @pytest.mark.parametrize(
        "path, raised",
        [
            ([0.0, 1e-170, 1e-150, 1e-130], "sum of squared lagged residuals is zero"),  # squares underflow
            ([0.0, 0.0, 1e-170, 1e-150], "sum of squared lagged values is zero"),
            ([1e200, 1.0, 1.0, 1.0, 1.0], "dw is not finite"),
            ([1.0, 1e200, 1.0, 1.0, 1.0], "sigma2_hat is not finite"),
            ([1.0, 2.0, 3.0, 1e180], "rho_hat is not finite"),
            ([2.0**-k for k in range(20)], None),  # residuals 0 after eps_hat_0 = X_0
        ],
    )
    def test_every_reachable_error_alone_and_in_a_block(self, path, raised):
        x = np.array(path)
        good = simulate(ModelParams(0.5, 0.3), NoiseSpec(), x.size - 1, 3).x
        for data in (x, np.stack([good, x]), np.stack([x, good, x])):
            outcome = _fit_outcome(estimate_all, data)
            assert outcome == _fit_outcome(estimate_all_reference, data)
            assert raised is None or outcome[1].startswith(raised)

    @pytest.mark.parametrize("n", [3, 4, 127, 128, 129, 5000])
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_simulated_blocks_and_rows(self, n, kind):
        x = simulate_paths(ModelParams(-0.6, 0.7, sigma2=2.0), NoiseSpec(kind), n, list(range(13)))
        assert _fit_outcome(estimate_all, x) == _fit_outcome(estimate_all_reference, x)
        for row in x[[0, -1]]:
            assert _fit_outcome(estimate_all, row) == _fit_outcome(estimate_all_reference, row)

    def test_a_block_fit_holds_the_residuals_and_one_scratch_row(self):
        # one clt block, 13 paths of n = 5000, within one leaf; 3.0x with the squares of X kept beside the scratch buffer
        x = simulate_paths(ModelParams(0.5, 0.3), NoiseSpec(), 5000, list(range(13)))
        assert traced_peak(lambda: estimate_all(x))[0] < 2.5 * x.nbytes  # measured 2.0x: the row and the residuals

    def test_a_long_series_fit_holds_a_leaf_of_scratch(self):
        x = simulate(ModelParams(0.5, 0.3), NoiseSpec(), 10**5, 5).x
        # a scratch row and a residual buffer of one leaf each, 2^14 values: measured 0.36x.  1.17x with a scratch
        # row as long as the series, 2.0x when the residuals were formed beside it
        assert traced_peak(lambda: estimate_all(x))[0] <= 0.45 * x.nbytes


def _reference_residuals(x, theta_hat):
    """residuals as one expression, with its two path-sized temporaries."""
    x = np.asarray(x, dtype=np.float64)
    res = np.empty_like(x)
    res[..., 0] = x[..., 0]
    res[..., 1:] = x[..., 1:] - np.asarray(theta_hat)[..., None] * x[..., :-1]
    return res


class TestResiduals:
    """residuals forms X_k - theta_hat*X_{k-1} in its output, with the expression's roundings."""

    def test_series_is_the_expression(self):
        x = simulate(ModelParams(0.93, -0.4, x0=3.5), NoiseSpec("uniform"), 5000, 3).x
        for theta_hat in (estimate_theta(x), 0.0, -0.999, 1e-300):
            assert residuals(x, theta_hat).tobytes() == _reference_residuals(x, theta_hat).tobytes()

    def test_block_with_a_theta_per_row(self):
        block = np.stack([simulate(ModelParams(0.5, 0.3), NoiseSpec(kind), 777, 9).x for kind in NOISE_KINDS])
        theta_hat = estimate_theta(block)
        got = residuals(block, theta_hat)
        assert got.tobytes() == _reference_residuals(block, theta_hat).tobytes()
        for row, th, res in zip(block, theta_hat, got):
            assert residuals(row, float(th)).tobytes() == res.tobytes()

    def test_signed_zeros(self):
        # -0.0 - 0.0*x and 0.0 - (-0.0) keep numpy's signs only if the same two operations run
        block = np.array([[-0.0, -0.0, 1.0, -0.0, 0.0], [0.0, -0.0, -0.0, 2.0, -0.0], [-0.0] * 5])
        for theta_hat in (0.0, -0.0, np.array([0.0, -0.0, 0.5]), np.array([-0.5, 0.0, -0.0])):
            assert residuals(block, theta_hat).tobytes() == _reference_residuals(block, theta_hat).tobytes()
            assert residuals(block[2], 0.0).tobytes() == _reference_residuals(block[2], 0.0).tobytes()

    def test_memory_is_the_output(self):
        # the expression form also held the product and the difference, near 3 x.nbytes
        x = simulate(ModelParams(0.5, 0.3), NoiseSpec(), 10**5, 4).x
        assert traced_peak(lambda: residuals(x, 0.5))[0] <= 1.1 * x.nbytes


class TestIdentities:
    """Exact algebraic identities between the cumulative sums.

    Every sum on the oracle side is recomputed with compensated summation, so
    the checks hold to 1e-10 relative on any simulated path.
    """

    @given(params_st, kind_st, seed_st)
    @settings(max_examples=30, deadline=None)
    def test_lag_one_decomposition(self, p, kind, seed):
        s = simulate(p, NoiseSpec(kind=kind), 300, seed)
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
        s = simulate(p, NoiseSpec(kind=kind), 300, seed)
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
        s = simulate(p, NoiseSpec(kind=kind), 300, seed)
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
        s = simulate(p, NoiseSpec(kind=kind), 300, seed)
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
        s = simulate(p, NoiseSpec(), 400, 314)
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


def _theta_deviations(x, k0):
    return squared_deviation_sum(x, "theta", 0.5, k0)


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
        for idx, k in enumerate(range(5, s.x.size)):
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
        for fn in (running_estimates, _theta_deviations):
            with pytest.raises(DomainError, match="^burn-in k0 must be at least 3$"):
                fn(x, k0=2)
            with pytest.raises(TooShort, match="^need at least k0=10 steps, got 4$"):
                fn(x[:5], k0=10)
            with pytest.raises(DegenerateDenominator):
                fn(np.zeros(30), k0=5)

    @pytest.mark.parametrize("fn", [running_estimates, _theta_deviations])
    @pytest.mark.parametrize("k0, shown", [(10.0, "10.0"), (10.5, "10.5"), ("10", "'10'"), (None, "None")])
    def test_a_burn_in_that_is_not_an_integer_is_named(self, fn, k0, shown):
        x = simulate(ModelParams(0.5, 0.3), NoiseSpec(), 200, 1).x
        with pytest.raises(DomainError) as exc:
            fn(x, k0)
        assert str(exc.value) == f"burn-in k0 must be an integer, got {shown}"
        fn(x, np.int64(10))  # a numpy integer is an integer


def _reference_running_estimates(x: np.ndarray, k0: int, theta_only: bool = False):
    # the whole-array kernel that the blocked running_estimates must reproduce bit for bit;
    # theta_only stops at the theta trajectory, which needs no residual sum
    n = x.size - 1
    xsq = x * x
    s_run = np.cumsum(xsq)
    lag1 = np.empty(n + 1)
    lag1[0] = 0.0
    lag1[1:] = x[1:] * x[:-1]
    p_run = np.cumsum(lag1)
    lag2 = np.zeros(n + 1)
    lag2[2:] = x[2:] * x[:-2]
    q_run = np.cumsum(lag2)

    k = np.arange(k0, n + 1)
    s_k, s_prev = s_run[k], s_run[k - 1]
    p_k, p_prev = p_run[k], p_run[k - 1]
    if s_prev[0] <= 0.0:
        raise DegenerateDenominator("series is identically zero up to the burn-in")

    th = p_k / s_prev
    if theta_only:
        return (th,)
    j_k = s_k - 2.0 * th * p_k + th * th * s_prev
    i_k = p_k - th * (s_prev + q_run[k]) + th * th * p_prev
    eps_k = x[k] - th * x[k - 1]
    j_prev = j_k - eps_k * eps_k
    if np.min(j_prev) <= 0.0:
        raise DegenerateDenominator("residual sum of squares vanished along the trajectory")
    rho = i_k / j_prev
    dw = (2.0 * (j_prev - i_k) + eps_k * eps_k - x[0] * x[0]) / j_k
    return th, rho, dw


BLOCKS = (1, 7, 1000, 2**14)

LEAVES = (128, 129, 1000, 2**14)  # _LEAF is at least 128, numpy's unrolled block

LEAF_OF_BLOCK = dict(zip(BLOCKS, LEAVES))  # the leaf size that checks running_estimates beside each block size


def _blocked_walk(x, k0, residual_sums=True):
    """The trajectories of the walk over blocks of ``_LEAF`` steps, each stepped into one-block buffers and copied out.

    Unlike running_estimates, which steps each block into views of its whole trajectories, this walk hands the
    stepper views of buffers that the next block overwrites, as squared_deviation_sum does; ``_LEAF`` also sets the
    walk's burn-in steps and the finiteness check's chunks.
    """
    x = estimators._series(x, k0)
    size = estimators._LEAF
    buffers = [np.empty(size) for _ in TRAJECTORIES[: 3 if residual_sums else 1]]
    blocks = []
    with estimators._overflow_guard():
        advance = estimators._walk(x, k0, residual_sums, size)
        for a in range(k0, x.size, size):
            views = [buffer[: min(size, x.size - a)] for buffer in buffers]
            advance(a, a + views[0].size, *views)
            blocks.append([view.copy() for view in views])
    return tuple(map(np.concatenate, zip(*blocks)))


def _theta_walk(x, k0):
    """theta_hat_k of the walk that forms S and P alone."""
    return _blocked_walk(x, k0, residual_sums=False)


def _reference_theta(x, k0):
    return _reference_running_estimates(x, k0, theta_only=True)


def _outcome(fn, x, k0, size):
    """The trajectory arrays as bytes, or the type of the exception raised, with ``_LEAF`` = ``size``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_LEAF", size)
        try:
            result = fn(x, k0)
        except DegenerateDenominator as exc:
            return type(exc)
    if isinstance(result, RunningEstimates):
        result = (result.theta, result.rho, result.dw)
    return tuple((arr.dtype.str, arr.tobytes()) for arr in result)


# a geometric path with a single nonzero innovation: J_{k-1} cancels to <= 0 near k = 30
_CANCELLING = np.concatenate([[0.0], 1e-10 * 2.0 ** np.arange(60)])


class TestBlockedRunningEstimates:
    """The blocked kernel against the whole-array reference, for any block size and for running_estimates' leaves."""

    @given(
        p=params_st,
        kind=kind_st,
        seed=seed_st,
        block=st.sampled_from(BLOCKS),
        leaf=st.sampled_from(LEAVES),
        k0_pick=st.sampled_from([3, 10, 25, "edge-1", "edge", "edge+1"]),
        blocks=st.integers(min_value=0, max_value=3),
        extra=st.integers(min_value=-1, max_value=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_bytes_match_the_whole_array_kernel(self, p, kind, seed, block, leaf, k0_pick, blocks, extra):
        # the prefix sums run in blocks from step 2, so k0 = block + 2 ends the
        # prefix exactly on a block edge; n + 1 - k0 = blocks*block + extra puts
        # the last block exactly full (extra 0) or one step past it (extra 1)
        offsets = {"edge-1": 1, "edge": 2, "edge+1": 3}
        k0 = block + offsets[k0_pick] if k0_pick in offsets else k0_pick
        k0 = max(k0, 3)
        n = max(k0, k0 - 1 + blocks * block + extra)
        x = simulate(p, NoiseSpec(kind), n, seed).x
        expected = _outcome(_reference_running_estimates, x, k0, block)
        assert _outcome(_blocked_walk, x, k0, block) == expected
        # running_estimates walks blocks of _LEAF steps, so every block size and every leaf size is one of its own
        assert _outcome(running_estimates, x, k0, block) == expected
        assert _outcome(running_estimates, x, k0, leaf) == expected
        assert _outcome(_theta_walk, x, k0, block) == _outcome(_reference_theta, x, k0, block)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_guards_raise_on_the_same_inputs(self, block):
        leaf = LEAF_OF_BLOCK[block]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # both kernels raise before any division by the vanished sums
            for x in (np.zeros(40), _CANCELLING):
                for k0 in (3, 10):
                    expected = _outcome(_reference_running_estimates, x, k0, block)
                    assert expected is DegenerateDenominator
                    assert _outcome(_blocked_walk, x, k0, block) is expected
                    assert _outcome(running_estimates, x, k0, leaf) is expected
            # the theta trajectory divides by no residual sum, so only the zero burn-in raises
            for x, k0 in ((np.zeros(40), 10), (_CANCELLING, 3), (_CANCELLING, 10)):
                expected = _outcome(_reference_theta, x, k0, block)
                assert _outcome(_theta_walk, x, k0, block) == expected
            assert _outcome(_theta_walk, np.zeros(40), 10, block) is DegenerateDenominator
        path = simulate(ModelParams(theta=0.5, rho=0.3), NoiseSpec(), 3000, 4).x
        for bad in (np.nan, np.inf, -np.inf):
            for index in (0, 1500, 3000):
                x = path.copy()
                x[index] = bad
                for fn, size in ((running_estimates, leaf), (_theta_deviations, leaf), (_blocked_walk, block)):
                    with pytest.MonkeyPatch.context() as mp, pytest.raises(DomainError) as exc:
                        mp.setattr(estimators, "_LEAF", size)
                        fn(x, k0=10)
                    assert str(exc.value) == f"non-finite value {bad} at index {index} of the series"

    @pytest.mark.parametrize("block", BLOCKS)
    def test_overflow_raises_without_warnings(self, block):
        path = simulate(ModelParams(theta=0.5, rho=0.3), NoiseSpec(), 3000, 4).x
        overflowing = [
            1e200 * np.where(np.arange(31) % 3 == 0, 1.0, -1.0),  # every square overflows
            np.concatenate([path, [1e200]]),  # only the last step's square does
            np.concatenate([np.full(10, 1e-100), np.full(20, 1e57)]),  # S stays finite, theta_hat_k^2 does not
        ]
        leaf = LEAF_OF_BLOCK[block]
        statistics = [(running_estimates, leaf), (_blocked_walk, block)] + [
            (lambda x, k0, which=which: squared_deviation_sum(x, which, 0.5, k0), leaf) for which in TRAJECTORIES
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in overflowing:
                for fn, size in statistics:
                    with pytest.MonkeyPatch.context() as mp, pytest.raises(DomainError) as exc:
                        mp.setattr(estimators, "_LEAF", size)
                        fn(x, k0=5)
                    assert str(exc.value) == "running estimates are not finite: a running sum or estimate overflows float64"

    @pytest.mark.parametrize("theta", [0.99, -0.99])
    def test_no_floating_point_warnings_near_the_unit_root(self, theta):
        x = simulate(ModelParams(theta=theta, rho=0.99), NoiseSpec(), 5 * 10**4, 6).x
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = running_estimates(x)
        assert np.all(np.isfinite(traj.dw))

    def test_memory_is_the_outputs_and_a_few_blocks(self):
        # the whole-array kernel peaked near 19 x.nbytes; the three outputs alone are 3 x.nbytes
        x = simulate(ModelParams(theta=0.5, rho=0.3), NoiseSpec(), 10**5, 2).x
        peak, traj = traced_peak(lambda: running_estimates(x))
        assert traj.theta.size == 10**5 - 9
        assert peak <= 6 * x.nbytes

    def test_theta_statistic_holds_block_buffers_only(self):
        # two rows of block sums and one block of the trajectory, each as long as the sum's longest leaf (12,504
        # steps here): measured 0.38x.  No Q, residual sums or k; 1.33x when the whole trajectory was kept for its sum
        x = simulate(ModelParams(theta=0.5, rho=0.3), NoiseSpec(), 10**5, 2).x
        assert traced_peak(lambda: squared_deviation_sum(x, "theta", 0.5))[0] <= 0.5 * x.nbytes

    @pytest.mark.parametrize("leaf", LEAVES)
    @pytest.mark.parametrize("which", TRAJECTORIES)
    def test_squared_deviation_sum_is_the_sum_over_the_trajectory(self, leaf, which):
        # the walk's blocks are the leaves of the sum, so they change with the leaf size; a burn-in near n leaves
        # one short block after a long walk
        x = simulate(ModelParams(theta=-0.4, rho=0.6, x0=1.5), NoiseSpec("uniform"), 3000, 8).x
        for k0 in (7, 2990):
            track = getattr(running_estimates(x, k0=k0), which)
            expected = float(np.sum((track - 0.3) ** 2))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(estimators, "_LEAF", leaf)
                assert squared_deviation_sum(x, which, 0.3, k0=k0) == expected
        with pytest.raises(DomainError):
            squared_deviation_sum(x, "sigma2", 0.3)


def _tree_sums(values, n):
    """``estimators._pairwise`` of n of ``values`` from position 0 and from position 1, one walk for both."""
    def leaf(a, b):
        return np.array([np.add.reduce(values[..., a + shift : b + shift], axis=-1) for shift in (0, 1)])

    return estimators._pairwise(n, leaf)


def _leaves(n):
    """The (a, b) of each ``leaf(a, b)`` call that ``estimators._pairwise`` makes for a sum of n terms, in order."""
    calls = []
    estimators._pairwise(n, lambda a, b: calls.append((a, b)) or 0.0)
    return calls


class TestLeafPlan:
    """A long sum formed leaf by leaf is numpy's own pairwise sum, bit for bit.

    The fit kernel and the qsl walk copy numpy's summation tree; a numpy that
    sums along another tree fails here first.  A leaf of 128 values, the
    least ``_LEAF`` allows, puts many leaves in short sums.
    """

    LENGTHS = [*range(1, 4 * 128 + 2), 999_991, 1_000_001]

    @pytest.mark.parametrize("shape", [(), (3,)], ids=["series", "block"])
    def test_the_leaf_sums_add_up_to_numpy_sum(self, monkeypatch, shape):
        monkeypatch.setattr(estimators, "_LEAF", 128)
        rng = np.random.default_rng(11)
        for n in self.LENGTHS:
            # magnitudes 2^-40..2^40 and signs at random, so that adding in another order moves the bits
            values = rng.standard_normal(shape + (n + 2,)) * 2.0 ** rng.integers(-40, 40, shape + (n + 2,))
            # sums of n-1, n and n+1 terms, whose trees split differently, each from positions 0 and 1
            for m in (n - 1, n, n + 1):
                for shift, total in enumerate(_tree_sums(values, m)):
                    got = total.tobytes()
                    assert got == np.add.reduce(values[..., shift : shift + m], axis=-1).tobytes(), m
                    rows = values.reshape(-1, n + 2)  # each row contiguous
                    alone = [np.add.reduce(row[shift : shift + m]) for row in rows]
                    assert got == np.array(alone).reshape(shape).tobytes(), m

    def test_signed_zeros_sum_as_numpy_sums_them(self, monkeypatch):
        monkeypatch.setattr(estimators, "_LEAF", 128)
        for values in (np.full(1001, -0.0), np.where(np.arange(1001) % 3, -0.0, 0.0)):
            for shift, total in enumerate(_tree_sums(values, 1000)):
                assert total.tobytes() == np.add.reduce(values[shift : shift + 1000]).tobytes()

    def test_the_leaves_follow_numpy_split(self, monkeypatch):
        monkeypatch.setattr(estimators, "_LEAF", 128)
        # 1000 values split at 496, each half at 248, each quarter at 120 or 128 (n//2 rounded down to a multiple of 8)
        assert _leaves(1000) == [(0, 120), (120, 248), (248, 368), (368, 496), (496, 616), (616, 744), (744, 872), (872, 1000)]
        assert _leaves(128) == [(0, 128)] and _leaves(129) == [(0, 64), (64, 129)]


# (estimators._LEAF, n, checkpoints): a prefix of m steps sums m-1, m and m+1 terms, so L-1, L and L+1 put
# those sums just within one leaf of L terms, across its edge and just beyond; later checkpoints take
# several leaves, and at m = 2000 (a multiple of 16) the trees of m-1 and m terms split apart at the root
_PREFIX_CASES = [
    (128, 300, [3, 16, 127, 128, 129, 300]),
    (128, 2000, [16, 255, 256, 257, 1000, 2000]),
    (1000, 3000, [999, 1000, 1001, 2001, 3000]),
    (2**14, 40_000, [16, 2**14 - 1, 2**14, 2**14 + 1, 40_000]),
]


def _refit_outcome(call):
    """The values ``call()`` returns, as bytes, or the class and message of the exception it raises."""
    try:
        return [np.asarray(value).tobytes() for value in call()]
    except Exception as exc:
        return type(exc), str(exc)


class TestFit:
    """The fit kernel on prefixes X_0..X_m against the one-statistic functions on the prefix, for any leaf size."""

    @pytest.mark.parametrize("leaf, n, checkpoints", _PREFIX_CASES)
    def test_bytes_match_the_whole_prefix_refit(self, monkeypatch, leaf, n, checkpoints):
        x = simulate_paths(ModelParams(theta=-0.6, rho=0.7), NoiseSpec("rademacher"), n, [3, 4, 5])
        monkeypatch.setattr(estimators, "_LEAF", leaf)
        for m in checkpoints:
            together = fit(x[:, : m + 1], ESTIMATES)
            for name, got in zip(ESTIMATES, together):
                assert got.tobytes() == prefix_estimate(x, m, name).tobytes(), (name, m)
                # asked for alone, a statistic gets the bits it gets among all five
                assert fit(x[:, : m + 1], [name])[0].tobytes() == got.tobytes(), (name, m)
                # a series on its own gets its row's value, as a float
                assert fit(x[1, : m + 1], [name]) == [float(got[1])], (name, m)
            # the values come in the order of the names asked for
            dw_then_theta = fit(x[:, : m + 1], ["dw", "theta_hat"])
            assert _refit_outcome(lambda: dw_then_theta) == _refit_outcome(lambda: [together[3], together[0]])

    def test_residuals_are_formed_once_per_leaf_and_pass(self, monkeypatch):
        x = simulate(ModelParams(theta=-0.6, rho=0.7), NoiseSpec(), 300, 3).x
        monkeypatch.setattr(estimators, "_LEAF", 128)
        form, formed = estimators._form_residuals, Counter()

        def counting(x, theta_hat, a, stop, out):
            formed[x.shape[-1] - 1] += 1
            return form(x, theta_hat, a, stop, out)

        monkeypatch.setattr(estimators, "_form_residuals", counting)
        for m in (100, 127, 128, 300):
            fit(x[: m + 1], ESTIMATES)
        # within one leaf, once for every sum: the walks of m and m+1 terms need eps_0..eps_m alike.  Beyond it,
        # once per leaf of each residual walk, but where a leaf needs the residuals that the leaf before it
        # formed: m = 128 walks 0..63 and 64..128 for dw's m+1 terms, then 0..127 for m terms in both later
        # passes; m = 300 walks four leaves in each of its three residual walks
        assert formed == {100: 1, 127: 1, 128: 2 + 1, 300: 4 + 4 + 4}

    @pytest.mark.parametrize("names", [("rho_hat",), ("sigma2_hat",), ("dw",), ("rho_hat", "dw")])
    def test_dw_denominator_is_summed_only_for_dw(self, monkeypatch, names):
        x = simulate(ModelParams(theta=0.5, rho=0.3), NoiseSpec(), 300, 3).x
        eps = residuals(x, estimate_theta(x))
        pairwise, walked = estimators._pairwise, set()

        def recording(n, leaf, a=0):
            sums = pairwise(n, leaf, a)
            walked.update((n, total) for total in np.atleast_1d(sums).tolist())
            return sums

        monkeypatch.setattr(estimators, "_pairwise", recording)
        fit(x, names)
        # sum eps_k^2 over k = 0..n, dw's denominator, against sum eps_{k-1}^2 over k = 1..n, rho_hat's
        assert ((301, float(np.sum(eps * eps))) in walked) == ("dw" in names)
        assert ((300, float(np.sum(eps[:-1] * eps[:-1]))) in walked) == (names != ("dw",))

    @pytest.mark.parametrize("leaf", [128, 200, 2**14])
    def test_the_first_error_is_the_whole_prefix_refits(self, monkeypatch, leaf):
        path = simulate_paths(ModelParams(theta=0.5, rho=0.3), NoiseSpec(), 300, [6, 7])
        monkeypatch.setattr(estimators, "_LEAF", leaf)
        raised = set()
        # zero throughout; zero past the first two checkpoints; zero but the last value that theta_hat's
        # denominator sums at m = 3; squares that underflow, so that the residual sums vanish at m = 3
        for head in ([0.0] * 301, [0.0] * 20, [0.0] * 2, [0.0, 1e-170, 1e-150, 1e-130]):
            x = path.copy()
            x[1, : len(head)] = head
            for names in [*((name,) for name in ESTIMATES), ESTIMATES, ("rho_hat", "dw")]:
                # the block, the damaged row as a block and on its own
                for data, m in itertools.product((x, x[1:], x[1]), (3, 16, 300)):
                    rows = np.atleast_2d(data)
                    expected = _refit_outcome(lambda: [prefix_estimate(rows, m, name) for name in names])
                    assert _refit_outcome(lambda: fit(data[..., : m + 1], names)) == expected, (names, m)
                    raised.add(expected[1] if expected[0] is DegenerateDenominator else None)
        assert raised == {None, THETA_DEGENERATE, RHO_DEGENERATE, DW_DEGENERATE, THETA_SQ_DEGENERATE}

    @pytest.mark.parametrize("name", ESTIMATES)
    def test_every_fit_names_its_first_statistic_that_is_not_finite(self, name):
        # squares that overflow: theta_hat is inf / inf, and every statistic formed from it nan
        x = simulate_paths(ModelParams(theta=0.5, rho=0.3), NoiseSpec(), 300, [6, 7]) * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for data in (x, x[0]):
                with pytest.raises(DomainError, match=f"^{name} is not finite: "):
                    fit(data, [name])
                with pytest.raises(DomainError, match=f"^{name} is not finite: "):
                    fit(data, [name, *ESTIMATES])

    def test_statistics_must_be_named_from_estimates(self):
        x = simulate(ModelParams(theta=0.5, rho=0.3), NoiseSpec(), 300, 6).x
        for names in (["sigma2"], "dw", ["rho"], []):
            with pytest.raises(DomainError, match="^statistics must be named from"):
                fit(x, names)
        with pytest.raises(TooShort):
            fit(x[:3], ["theta_hat"])
        assert fit(x[:4], ["dw"]) == [dw_statistic(residuals(x[:4], estimate_theta(x[:4])))]

    def test_a_series_fits_as_its_values(self):
        series = simulate(ModelParams(theta=0.5, rho=0.3), NoiseSpec(), 300, 6)
        assert _fit_outcome(estimate_all, series) == _fit_outcome(estimate_all, series.x)
        assert fit(series, ESTIMATES) == fit(series.x, ESTIMATES)


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
        assert residuals(s.x, est.theta_hat)[0] == s.x[0]
        assert est.theta_hat == estimate_theta(s.x)
        assert est.dw >= 0.0
        # fsum mirrors of the full pipeline
        th = theta_hat_fsum(s.x)
        res = residuals(s.x, th)
        assert rel_close(est.rho_hat, rho_hat_fsum(res), 1e-12)
        assert rel_close(est.dw, dw_fsum(res), 1e-12)
