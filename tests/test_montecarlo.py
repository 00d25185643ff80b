import json

import numpy as np
import pytest

from dwlab.errors import DomainError
from dwlab.estimators import estimate_all
from dwlab.model import ModelParams, NoiseSpec, simulate
from dwlab.montecarlo import (
    McConfig,
    derive_seed,
    empirical_size_power,
    lil_deviation,
    lil_envelope_check,
    qsl_check,
    run_replications,
)


def config(theta, rho, n, reps, seed, alpha=0.05, kind="gaussian", sigma2=1.0):
    return McConfig(
        params=ModelParams(theta=theta, rho=rho, sigma2=sigma2),
        noise=NoiseSpec(kind=kind, sigma2=sigma2),
        n=n,
        replicates=reps,
        base_seed=seed,
        alpha=alpha,
    )


class TestSeedDerivation:
    def test_frozen_values(self):
        # pinned so the replicate streams stay identical across releases
        assert derive_seed(7, 0) == 7191089600892374487
        assert derive_seed(7, 1) == 309689372594955804
        assert derive_seed(2**64 - 1, 123456) == 13507230719041782330

    def test_no_collisions_over_a_million_indices(self):
        seeds = np.fromiter((derive_seed(99, i) for i in range(1_000_000)), dtype=np.uint64)
        assert np.unique(seeds).size == seeds.size

    def test_different_bases_differ(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_negative_index_rejected(self):
        with pytest.raises(DomainError):
            derive_seed(1, -1)


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(DomainError):
            config(0.5, 0.3, n=50, reps=10, seed=1)
        with pytest.raises(DomainError):
            config(0.5, 0.3, n=1000, reps=0, seed=1)
        with pytest.raises(DomainError):
            config(0.5, 0.3, n=1000, reps=10, seed=1, alpha=1.5)

    @pytest.mark.parametrize("seed", [-5, 2**64, 1.5])
    def test_seed_checked_like_simulate(self, seed):
        with pytest.raises(DomainError):
            config(0.5, 0.3, n=1000, reps=10, seed=seed)


class TestRunReplications:
    def test_single_replicate_matches_direct_estimation(self):
        cfg = config(0.5, 0.3, n=500, reps=1, seed=77)
        report = run_replications(cfg)
        series = simulate(cfg.params, cfg.noise, cfg.n, derive_seed(77, 0))
        est = estimate_all(series.x)
        assert report.estimates["theta_hat"] == [est.theta_hat]
        assert report.estimates["rho_hat"] == [est.rho_hat]
        assert report.estimates["sigma2_hat"] == [est.sigma2_hat]
        assert report.estimates["dw"] == [est.dw]
        assert report.sample_cov is None  # needs two replicates

    def test_thread_count_does_not_change_the_report(self):
        cfg = config(0.4, -0.2, n=400, reps=64, seed=123)
        a = run_replications(cfg, threads=1).to_dict()
        b = run_replications(cfg, threads=4).to_dict()
        c = run_replications(cfg, threads=8).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert json.dumps(a, sort_keys=True) == json.dumps(c, sort_keys=True)

    def test_clt_sanity_at_the_origin(self):
        # theta = rho = 0: sqrt(n) * theta_hat is asymptotically standard
        # normal; rho and dw have degenerate limits there and are skipped
        cfg = config(0.0, 0.0, n=5000, reps=2000, seed=31415)
        report = run_replications(cfg, threads=4)
        assert report.ks["theta"]["statistic"] <= 0.05
        assert "rho" not in report.ks
        assert "dw" not in report.ks
        assert any("rho" in note for note in report.notes)

    def test_report_metadata(self):
        cfg = config(0.5, 0.3, n=200, reps=8, seed=5)
        report = run_replications(cfg)
        d = report.to_dict()
        assert d["experiment"] == "replications"
        assert d["tolerances"]["ks"] == 0.05
        assert d["targets"]["theta_star"] == pytest.approx(16 / 23, abs=1e-14)
        assert len(d["standardized"]["theta"]) == 8


class TestSizePower:
    def test_zero_test_size_smoke(self):
        cfg = config(0.5, 0.0, n=1000, reps=400, seed=2718)
        report = empirical_size_power("zero", cfg)
        assert report.test_kind == "zero"
        assert 0.01 <= report.rejection_rate <= 0.12
        assert len(report.test_statistics) == 400
        assert len(report.rejections) == 400

    def test_rho0_requires_value(self):
        cfg = config(0.5, 0.3, n=1000, reps=10, seed=1)
        with pytest.raises(DomainError):
            empirical_size_power("rho0", cfg)

    def test_unknown_kind(self):
        cfg = config(0.5, 0.3, n=1000, reps=10, seed=1)
        with pytest.raises(DomainError):
            empirical_size_power("wilcoxon", cfg)

    def test_power_smoke(self):
        cfg = config(0.5, 0.3, n=2000, reps=200, seed=999)
        report = empirical_size_power("zero", cfg)
        assert report.rejection_rate >= 0.95

    def test_threads_deterministic(self):
        cfg = config(0.4, -0.4, n=500, reps=60, seed=4)
        a = empirical_size_power("critical", cfg, threads=1).to_dict()
        b = empirical_size_power("critical", cfg, threads=8).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestQsl:
    def test_requires_large_n(self):
        cfg = config(0.5, 0.3, n=1000, reps=2, seed=1)
        with pytest.raises(DomainError):
            qsl_check(cfg, "theta")

    def test_unknown_statistic(self):
        cfg = config(0.5, 0.3, n=20_000, reps=2, seed=1)
        with pytest.raises(DomainError):
            qsl_check(cfg, "sigma")

    def test_order_of_magnitude_at_moderate_n(self):
        # at n = 10^4 the log average should already sit near the target
        cfg = config(0.5, 0.3, n=10_000, reps=8, seed=606)
        report = qsl_check(cfg, "theta")
        assert report.qsl["which"] == "theta"
        assert len(report.qsl["values"]) == 8
        ratio = report.qsl["mean"] / report.qsl["target"]
        assert 0.2 <= ratio <= 3.0

    def test_rho_trajectory_with_uncorrelated_noise(self):
        # rho = 0 with theta = 0.5: the target variance reduces to theta^2
        cfg = config(0.5, 0.0, n=10**6, reps=10, seed=31)
        report = qsl_check(cfg, "rho", threads=8)
        assert report.qsl["target"] == pytest.approx(0.25, abs=1e-15)
        assert abs(report.qsl["mean"] - 0.25) <= 0.30 * 0.25


class TestLil:
    def test_deviation_is_zero_at_the_limit_itself(self):
        assert lil_deviation(0.123, 0.123, 10_000) == 0.0

    def test_deviation_guard(self):
        with pytest.raises(DomainError):
            lil_deviation(0.1, 0.2, 10)

    def test_checkpoint_validation(self):
        cfg = config(0.5, 0.3, n=10_000, reps=2, seed=1)
        with pytest.raises(DomainError):
            lil_envelope_check(cfg, "theta", [20_000])
        with pytest.raises(DomainError):
            lil_envelope_check(cfg, "theta", [8])
        with pytest.raises(DomainError):
            lil_envelope_check(cfg, "theta", [])

    def test_envelope_smoke(self):
        cfg = config(0.5, 0.3, n=10_000, reps=30, seed=808)
        report = lil_envelope_check(cfg, "theta", [1000, 10_000])
        lil = report.lil
        assert lil["checkpoints"] == [1000, 10_000]
        assert len(lil["deviations"]) == 30
        assert 0.0 <= lil["exceedance_fraction"] <= 0.2
        assert "envelope" in lil and lil["envelope"] > 0.0
        assert "limsup" in lil["note"]
