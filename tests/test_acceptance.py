"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value is either a hand-checkable constant or derived from the
exact rational closed forms; every random check runs on a fixed seed so the
suite is fully reproducible.  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

import json
import time

import numpy as np
import pytest

from dwlab import limits
from dwlab.cli import main as cli_main
from dwlab.estimators import estimate_all, estimate_theta, residuals
from dwlab.model import ModelParams, NoiseSpec, make_rng, simulate
from dwlab.montecarlo import (
    McConfig,
    empirical_size_power,
    lil_envelope_check,
    qsl_check,
    run_replications,
)
from dwlab.recovery import recover_params, recover_sigma2

from oracles import dot_fsum, sum_fsum

THREADS = 8


def ident_ok(lhs, rhs, tol=1e-10):
    return abs(lhs - rhs) <= tol * max(1.0, abs(lhs), abs(rhs))


def report(line):
    print(line)


def test_criterion_1_exact_identity_suite():
    """Five algebraic identities on 100 random paths, 1e-10 relative."""
    start = time.perf_counter()
    rng = make_rng(20250)
    kinds = ("gaussian", "uniform", "rademacher")
    worst = 0.0
    for trial in range(100):
        theta = float(rng.uniform(-0.9, 0.9))
        rho = float(rng.uniform(-0.9, 0.9))
        x0 = float(rng.uniform(-1.0, 1.0))
        eps0 = float(rng.uniform(-1.0, 1.0))
        seed = int(rng.integers(0, 2**63))
        p = ModelParams(theta=theta, rho=rho, sigma2=1.0, x0=x0, eps0=eps0)
        s = simulate(p, NoiseSpec(kind=kinds[trial % 3]), 500, seed)
        x, v = s.x, s.v
        n = s.n

        def gap(lhs, rhs):
            return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))

        # lag-1 sum decomposition
        p_n = dot_fsum(x[1:], x[:-1])
        s_prev = dot_fsum(x[:-1], x[:-1])
        m_n = dot_fsum(x[:-1], v)
        worst = max(worst, gap(
            (1.0 + theta * rho) * p_n,
            (theta + rho) * s_prev + m_n + theta * rho * x[n] * x[n - 1] + rho * x0 * (eps0 - x0),
        ))
        # lag-2 sum decomposition
        q_n = dot_fsum(x[2:], x[:-2])
        worst = max(worst, gap(
            q_n,
            (theta + rho) * dot_fsum(x[1:-1], x[:-2])
            - theta * rho * dot_fsum(x[:-2], x[:-2])
            + dot_fsum(x[:-2], v[1:]),
        ))
        # residual sum expansions in theta_hat
        th = estimate_theta(x)
        res = residuals(x, th)
        i_n = dot_fsum(res[1:], res[:-1])
        j_n = dot_fsum(res, res)
        s_n = dot_fsum(x, x)
        worst = max(worst, gap(i_n, p_n - th * (s_prev + q_n) + th * th * dot_fsum(x[1:-1], x[:-2])))
        worst = max(worst, gap(j_n, s_n - 2.0 * th * p_n + th * th * s_prev))
        # Durbin-Watson linear relations
        k_n = sum_fsum((res[1:] - res[:-1]) ** 2)
        j_prev = j_n - res[-1] ** 2
        dw = k_n / j_n
        worst = max(worst, gap((j_prev + res[-1] ** 2) * dw,
                               2.0 * (j_prev - i_n) + res[-1] ** 2 - res[0] ** 2))
        rho_hat = i_n / j_prev
        worst = max(worst, gap(dw, 2.0 * (1.0 - res[-1] ** 2 / j_n) * (1.0 - rho_hat)
                               + (res[-1] ** 2 - res[0] ** 2) / j_n))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 5.0
    report(f"ACCEPTANCE 1 (exact identities): PASS  worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_almost_sure_limits():
    """Single path, n = 10^6: estimators land on the closed-form limits."""
    start = time.perf_counter()
    s = simulate(ModelParams(theta=0.5, rho=0.3, sigma2=1.0), NoiseSpec(), 10**6, 42)
    est = estimate_all(s.x)
    elapsed = time.perf_counter() - start
    assert abs(est.theta_hat - 0.6956521739130435) <= 0.005
    assert abs(est.rho_hat - 0.10434782608695653) <= 0.005
    assert abs(est.dw - 1.7913043478260870) <= 0.01
    assert abs(est.sigma2_hat - 1.0118788042873925) <= 0.01
    assert elapsed < 2.0
    report(
        "ACCEPTANCE 2 (almost-sure limits): PASS  "
        f"th {est.theta_hat:.6f} rho {est.rho_hat:.6f} dw {est.dw:.6f} "
        f"sig2 {est.sigma2_hat:.6f}, {elapsed:.2f}s"
    )


def test_criterion_3_central_limit_behavior():
    """2000 replicates at n = 5000: standardized laws and joint covariance."""
    start = time.perf_counter()
    cfg = McConfig(
        params=ModelParams(theta=0.5, rho=0.3),
        noise=NoiseSpec(),
        n=5000,
        replicates=2000,
        base_seed=777,
    )
    rep = run_replications(cfg, threads=THREADS)
    elapsed = time.perf_counter() - start
    ks = {name: rep.body["ks"][name]["statistic"] for name in ("theta", "rho", "dw")}
    for name, value in ks.items():
        assert value <= 0.05, (name, ks)
    gamma = np.array(rep.body["targets"]["gamma"])
    cov = np.array(rep.body["sample_cov"])
    tol = np.maximum(0.10 * np.abs(gamma), 0.05)
    assert np.all(np.abs(cov - gamma) <= tol), (cov, gamma)
    assert elapsed < 60.0
    report(
        "ACCEPTANCE 3 (CLT, joint covariance): PASS  "
        f"ks={{theta: {ks['theta']:.4f}, rho: {ks['rho']:.4f}, dw: {ks['dw']:.4f}}}, "
        f"max cov err {np.max(np.abs(cov - gamma)):.4f}, {elapsed:.1f}s"
    )


def test_criterion_4_test_size():
    """Empirical size of the three tests at alpha = 0.05, n = 5000."""
    start = time.perf_counter()
    zero = empirical_size_power(
        "zero",
        McConfig(params=ModelParams(theta=0.5, rho=0.0), noise=NoiseSpec(),
                 n=5000, replicates=2000, base_seed=101),
        threads=THREADS,
    ).body["rejection_rate"]
    critical = empirical_size_power(
        "critical",
        McConfig(params=ModelParams(theta=0.4, rho=-0.4), noise=NoiseSpec(),
                 n=5000, replicates=2000, base_seed=102),
        threads=THREADS,
    ).body["rejection_rate"]
    general = empirical_size_power(
        "rho0",
        McConfig(params=ModelParams(theta=0.5, rho=0.3), noise=NoiseSpec(),
                 n=5000, replicates=2000, base_seed=103),
        rho0=0.3,
        threads=THREADS,
    ).body["rejection_rate"]
    elapsed = time.perf_counter() - start
    assert 0.035 <= zero <= 0.065
    assert 0.03 <= critical <= 0.07
    assert 0.03 <= general <= 0.07
    assert elapsed < 120.0
    report(
        "ACCEPTANCE 4 (test size): PASS  "
        f"zero {zero:.4f} in [0.035, 0.065], critical {critical:.4f} in [0.03, 0.07], "
        f"rho0 {general:.4f} in [0.03, 0.07], {elapsed:.1f}s"
    )


def test_criterion_5_test_power():
    """Both tests reject a false null essentially always at n = 5000."""
    start = time.perf_counter()
    zero_power = empirical_size_power(
        "zero",
        McConfig(params=ModelParams(theta=0.5, rho=0.3), noise=NoiseSpec(),
                 n=5000, replicates=2000, base_seed=104),
        threads=THREADS,
    ).body["rejection_rate"]
    rho0_power = empirical_size_power(
        "rho0",
        McConfig(params=ModelParams(theta=0.5, rho=0.0), noise=NoiseSpec(),
                 n=5000, replicates=2000, base_seed=105),
        rho0=0.3,
        threads=THREADS,
    ).body["rejection_rate"]
    elapsed = time.perf_counter() - start
    assert zero_power >= 0.99
    assert rho0_power >= 0.99
    report(
        "ACCEPTANCE 5 (test power): PASS  "
        f"zero {zero_power:.4f}, rho0 {rho0_power:.4f}, {elapsed:.1f}s"
    )


def test_criterion_6_quadratic_strong_law():
    """Log-averaged squared deviations settle near the asymptotic variances."""
    start = time.perf_counter()
    cfg = McConfig(
        params=ModelParams(theta=0.5, rho=0.3),
        noise=NoiseSpec(),
        n=10**6,
        replicates=10,
        base_seed=11,
    )
    ratios = {}
    for which in ("theta", "rho", "dw"):
        rep = qsl_check(cfg, which, threads=THREADS)
        ratios[which] = rep.body["qsl"]["mean"] / rep.body["qsl"]["target"]
    elapsed = time.perf_counter() - start
    for which, ratio in ratios.items():
        assert 0.70 <= ratio <= 1.30, (which, ratio)
    assert elapsed < 120.0
    report(
        "ACCEPTANCE 6 (quadratic strong law): PASS  mean/target "
        + " ".join(f"{k}={v:.3f}" for k, v in ratios.items())
        + f", {elapsed:.1f}s"
    )


def test_criterion_7_lil_envelope():
    """Normalized deviations stay inside three asymptotic sds almost always."""
    start = time.perf_counter()
    cfg = McConfig(
        params=ModelParams(theta=0.5, rho=0.3),
        noise=NoiseSpec(),
        n=10**6,
        replicates=100,
        base_seed=2025,
    )
    fractions = {}
    for which in ("theta", "rho", "dw"):
        rep = lil_envelope_check(cfg, which, [10**4, 10**5, 10**6], threads=THREADS)
        fractions[which] = rep.body["lil"]["exceedance_fraction"]
    elapsed = time.perf_counter() - start
    for which, frac in fractions.items():
        assert frac <= 0.05, (which, frac)
    report(
        "ACCEPTANCE 7 (iterated-logarithm envelope): PASS  exceedance "
        + " ".join(f"{k}={v:.3f}" for k, v in fractions.items())
        + f", {elapsed:.1f}s"
    )


def test_criterion_8_recovery_round_trip():
    """Exact-limit inputs invert to the true parameters; a long path gets close."""
    start = time.perf_counter()
    grid = [v / 10 for v in (-8, -6, -4, -2, 2, 4, 6, 8)]
    worst = 0.0
    for theta in grid:
        for rho in grid:
            if theta == rho or theta == -rho:
                continue
            rec = recover_params(
                limits.theta_star(theta, rho), limits.rho_star(theta, rho), "theta_less"
            )
            worst = max(worst, abs(rec.theta_rec - min(theta, rho)))
            worst = max(worst, abs(rec.rho_rec - max(theta, rho)))
            sigma2 = recover_sigma2(
                limits.theta_star(theta, rho),
                limits.rho_star(theta, rho),
                limits.sigma_hat_limit(theta, rho, 1.0),
            )
            worst = max(worst, abs(sigma2 - 1.0))
    assert worst <= 1e-10

    s = simulate(ModelParams(theta=0.3, rho=0.5, sigma2=1.0), NoiseSpec(), 10**6, 512)
    est = estimate_all(s.x)
    rec = recover_params(est.theta_hat, est.rho_hat, "theta_less")
    sigma2 = recover_sigma2(est.theta_hat, est.rho_hat, est.sigma2_hat)
    elapsed = time.perf_counter() - start
    assert 0.29 <= rec.theta_rec <= 0.31
    assert 0.49 <= rec.rho_rec <= 0.51
    assert 0.98 <= sigma2 <= 1.02
    report(
        "ACCEPTANCE 8 (recovery round trip): PASS  "
        f"grid worst {worst:.2e}, path ({rec.theta_rec:.4f}, {rec.rho_rec:.4f}, {sigma2:.4f}), "
        f"{elapsed:.1f}s"
    )


def test_criterion_9_parallel_determinism(capsys):
    """The verify payload is byte-identical across 1 and 8 worker threads.

    The run manifest is excluded from the comparison: it embeds the literal
    command line (which names the thread count) and a timestamp.
    """
    args = [
        "verify", "--experiment", "clt", "--theta", "0.5", "--rho", "0.3",
        "--n", "2000", "--reps", "500", "--seed", "90210",
    ]
    assert cli_main(args + ["--threads", "1"]) == 0
    out_single = capsys.readouterr().out
    assert cli_main(args + ["--threads", "8"]) == 0
    out_pool = capsys.readouterr().out

    payload_single = json.loads(out_single)
    payload_pool = json.loads(out_pool)
    payload_single.pop("manifest")
    payload_pool.pop("manifest")
    bytes_single = json.dumps(payload_single, sort_keys=False).encode()
    bytes_pool = json.dumps(payload_pool, sort_keys=False).encode()
    assert bytes_single == bytes_pool
    with capsys.disabled():
        report(f"\nACCEPTANCE 9 (parallel determinism): PASS  {len(bytes_single)} payload bytes identical")
