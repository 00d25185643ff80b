import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwlab import estimators
from dwlab.errors import DegenerateDenominator, DomainError, TooShort
from dwlab.estimators import (
    TRAJECTORIES,
    RunningEstimates,
    dw_statistic,
    estimate_all,
    estimate_rho,
    estimate_sigma2,
    estimate_theta,
    estimate_theta_sq,
    prefix_estimates,
    residuals,
    running_estimates,
    squared_deviation_sum,
)
from dwlab.model import NOISE_KINDS, ModelParams, NoiseSpec, simulate, simulate_paths

from oracles import dot_fsum, dw_fsum, prefix_estimate, rel_close, rho_hat_fsum, sum_fsum, theta_hat_fsum

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
        assert fit.n == n and fit.residuals.shape == block.shape
        for i in range(rows):
            one = estimate_all(block[i])
            for name in _FITTED:
                assert type(getattr(one, name)) is float
                assert np.float64(getattr(one, name)).tobytes() == getattr(fit, name)[i].tobytes(), (name, i)
            assert one.residuals.tobytes() == fit.residuals[i].tobytes()

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
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            residuals(x, 0.5)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * x.nbytes


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
        for fn in (running_estimates, _theta_deviations):
            with pytest.raises(DomainError, match="^burn-in k0 must be at least 3$"):
                fn(x, k0=2)
            with pytest.raises(TooShort, match="^need at least k0=10 steps, got 4$"):
                fn(x[:5], k0=10)
            with pytest.raises(DegenerateDenominator):
                fn(np.zeros(30), k0=5)


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
    return k, th, rho, dw


BLOCKS = (1, 7, 1000, 2**14)


def _theta_walk(x, k0):
    with estimators._overflow_guard():
        return estimators._walk(x, k0, ("theta",))


def _reference_theta(x, k0):
    return _reference_running_estimates(x, k0, theta_only=True)


def _outcome(fn, x, k0, block):
    """The trajectory arrays as bytes, or the type of the exception raised."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_BLOCK", block)
        try:
            result = fn(x, k0)
        except DegenerateDenominator as exc:
            return type(exc)
    if isinstance(result, RunningEstimates):
        result = (result.k, result.theta, result.rho, result.dw)
    return tuple((arr.dtype.str, arr.tobytes()) for arr in result)


# a geometric path with a single nonzero innovation: J_{k-1} cancels to <= 0 near k = 30
_CANCELLING = np.concatenate([[0.0], 1e-10 * 2.0 ** np.arange(60)])


class TestBlockedRunningEstimates:
    """The blocked kernel against the whole-array reference, for any block size."""

    @given(
        p=params_st,
        kind=kind_st,
        seed=seed_st,
        block=st.sampled_from(BLOCKS),
        k0_pick=st.sampled_from([3, 10, 25, "edge-1", "edge", "edge+1"]),
        blocks=st.integers(min_value=0, max_value=3),
        extra=st.integers(min_value=-1, max_value=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_bytes_match_the_whole_array_kernel(self, p, kind, seed, block, k0_pick, blocks, extra):
        # the prefix sums run in blocks from step 2, so k0 = block + 2 ends the
        # prefix exactly on a block edge; n + 1 - k0 = blocks*block + extra puts
        # the last block exactly full (extra 0) or one step past it (extra 1)
        offsets = {"edge-1": 1, "edge": 2, "edge+1": 3}
        k0 = block + offsets[k0_pick] if k0_pick in offsets else k0_pick
        k0 = max(k0, 3)
        n = max(k0, k0 - 1 + blocks * block + extra)
        x = simulate(p, NoiseSpec(kind), n, seed).x
        expected = _outcome(_reference_running_estimates, x, k0, block)
        assert _outcome(running_estimates, x, k0, block) == expected
        assert _outcome(_theta_walk, x, k0, block) == _outcome(_reference_theta, x, k0, block)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_guards_raise_on_the_same_inputs(self, block):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # both kernels raise before any division by the vanished sums
            for x in (np.zeros(40), _CANCELLING):
                for k0 in (3, 10):
                    expected = _outcome(_reference_running_estimates, x, k0, block)
                    assert expected is DegenerateDenominator
                    assert _outcome(running_estimates, x, k0, block) is expected
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
                for fn in (running_estimates, _theta_deviations):
                    with pytest.MonkeyPatch.context() as mp, pytest.raises(DomainError) as exc:
                        mp.setattr(estimators, "_BLOCK", block)
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
        statistics = [running_estimates] + [
            lambda x, k0, which=which: squared_deviation_sum(x, which, 0.5, k0) for which in TRAJECTORIES
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in overflowing:
                for fn in statistics:
                    with pytest.MonkeyPatch.context() as mp, pytest.raises(DomainError) as exc:
                        mp.setattr(estimators, "_BLOCK", block)
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
        # the whole-array kernel peaked near 19 x.nbytes; the four outputs alone are 4 x.nbytes
        x = simulate(ModelParams(theta=0.5, rho=0.3), NoiseSpec(), 10**5, 2).x
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            traj = running_estimates(x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert traj.k.size == 10**5 - 9
        assert peak <= 6 * x.nbytes

    def test_theta_statistic_holds_one_trajectory(self):
        # one trajectory (about x.nbytes) plus two rows of block sums; no Q, residual sums or k
        x = simulate(ModelParams(theta=0.5, rho=0.3), NoiseSpec(), 10**5, 2).x
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            squared_deviation_sum(x, "theta", 0.5)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * x.nbytes

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("which", TRAJECTORIES)
    def test_squared_deviation_sum_is_the_sum_over_the_trajectory(self, block, which):
        x = simulate(ModelParams(theta=-0.4, rho=0.6, x0=1.5), NoiseSpec("uniform"), 3000, 8).x
        track = getattr(running_estimates(x, k0=7), which)
        expected = float(np.sum((track - 0.3) ** 2))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimators, "_BLOCK", block)
            assert squared_deviation_sum(x, which, 0.3, k0=7) == expected
        with pytest.raises(DomainError):
            squared_deviation_sum(x, "sigma2", 0.3)


# (estimators._BLOCK, n, checkpoints): the residual chunks start at steps 1, 1+B, 1+2B, ..., and a
# checkpoint m ends its passes at step m or m+1, so jB-1, jB and jB+1 end them just before, on and
# just after a chunk edge
_PREFIX_CASES = [
    (1, 300, [16, 17, 18, 300]),
    (7, 2000, [16, 20, 21, 22, 2000]),
    (2**14, 40_000, [16, 2**14 - 1, 2**14, 2**14 + 1, 40_000]),
]


def _refit_outcome(fit):
    """The values ``fit()`` returns, as bytes, or the class and message of the exception it raises."""
    try:
        return [np.asarray(value).tobytes() for value in fit()]
    except Exception as exc:
        return type(exc), str(exc)


class TestPrefixEstimates:
    """The chunked lil refit against the whole-prefix one-shot fits, for any chunk size."""

    @pytest.mark.parametrize("block, n, checkpoints", _PREFIX_CASES)
    def test_bytes_match_the_whole_prefix_refit(self, monkeypatch, block, n, checkpoints):
        x = simulate_paths(ModelParams(theta=-0.6, rho=0.7), NoiseSpec("rademacher"), n, [3, 4, 5])
        monkeypatch.setattr(estimators, "_BLOCK", block)
        for which in TRAJECTORIES:
            expected = [prefix_estimate(x, m, which) for m in checkpoints]
            got = prefix_estimates(x, which, checkpoints)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in expected], which
            # a series on its own gets its row's values, as floats
            assert prefix_estimates(x[1], which, checkpoints) == [float(a[1]) for a in got], which

    @pytest.mark.parametrize("block", [1, 7, 2**14])
    def test_a_zero_row_raises_as_the_whole_prefix_refit_does(self, monkeypatch, block):
        path = simulate_paths(ModelParams(theta=0.5, rho=0.3), NoiseSpec(), 300, [6, 7])
        monkeypatch.setattr(estimators, "_BLOCK", block)
        for zero in (slice(None), slice(0, 20)):  # zero throughout, or only up to past the first checkpoint
            x = path.copy()
            x[1, zero] = 0.0
            for which in TRAJECTORIES:
                expected = _refit_outcome(lambda: [prefix_estimate(x, m, which) for m in (16, 300)])
                assert expected == (DegenerateDenominator, "sum of squared lagged values is zero")
                assert _refit_outcome(lambda: prefix_estimates(x, which, [16, 300])) == expected
                assert _refit_outcome(lambda: prefix_estimates(x[1], which, [16, 300])) == expected

    def test_checkpoints_must_ascend_within_the_path(self):
        x = simulate(ModelParams(theta=0.5, rho=0.3), NoiseSpec(), 300, 6).x
        for checkpoints in ([], [2], [301], [100, 100], [200, 100]):
            with pytest.raises(DomainError, match=r"^checkpoints must ascend strictly within \[3, 300\]$"):
                prefix_estimates(x, "rho", checkpoints)
        with pytest.raises(DomainError):
            prefix_estimates(x, "sigma2", [100])
        assert prefix_estimates(x, "dw", [3, 300])[0] == dw_statistic(residuals(x[:4], estimate_theta(x[:4])))


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
