import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np
import pytest

from dwlab import estimators, montecarlo
from dwlab.errors import DegenerateStatistic, DomainError, OutOfRegion, TooShort
from dwlab.estimators import (
    DEFAULT_BURN_IN,
    TRAJECTORIES,
    dw_statistic,
    estimate_all,
    estimate_rho,
    estimate_theta,
    residuals,
    running_estimates,
)
from dwlab.model import ModelParams, NoiseSpec, simulate
from dwlab.testing import critical_case_test, rho_test, rho_zero_test
from dwlab.montecarlo import (
    McConfig,
    derive_seed,
    empirical_size_power,
    lil_deviation,
    lil_envelope_check,
    qsl_check,
    run_replications,
)


SRC = str(Path(__file__).resolve().parents[1] / "src")

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="worker processes are forked")

# Linux alone kills a worker with its parent (prctl); /proc lists the processes
needs_linux = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers die with their parent on Linux")


def _fresh_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def _pids(x):
    return [os.getpid()] * len(x)


def _pids_and_values(x):
    return [(os.getpid(), value) for value in x[:, 1].tolist()]


def _first_values(x):
    return x[:, 1].tolist()


def config(theta, rho, n, reps, seed, alpha=0.05, kind="gaussian", sigma2=1.0):
    return McConfig(
        params=ModelParams(theta=theta, rho=rho, sigma2=sigma2),
        noise=NoiseSpec(kind=kind),
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
        assert report.body["estimates"]["theta_hat"] == [est.theta_hat]
        assert report.body["estimates"]["rho_hat"] == [est.rho_hat]
        assert report.body["estimates"]["sigma2_hat"] == [est.sigma2_hat]
        assert report.body["estimates"]["dw"] == [est.dw]
        assert "sample_cov" not in report.body  # needs two replicates

    def test_thread_count_does_not_change_the_report(self):
        cfg = config(0.4, -0.2, n=400, reps=64, seed=123)
        a = run_replications(cfg, threads=1).to_dict()
        b = run_replications(cfg, threads=4).to_dict()
        c = run_replications(cfg, threads=8).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert json.dumps(a, sort_keys=True) == json.dumps(c, sort_keys=True)

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(DomainError, match="^threads must be at least 1"):
            run_replications(config(0.4, -0.2, n=400, reps=64, seed=123), threads=threads)

    def test_clt_sanity_at_the_origin(self):
        # theta = rho = 0: sqrt(n) * theta_hat is asymptotically standard
        # normal; rho and dw have degenerate limits there and are skipped
        cfg = config(0.0, 0.0, n=5000, reps=2000, seed=31415)
        report = run_replications(cfg, threads=4)
        assert report.body["ks"]["theta"]["statistic"] <= 0.05
        assert "rho" not in report.body["ks"]
        assert "dw" not in report.body["ks"]
        assert any("rho" in note for note in report.body["notes"])

    def test_report_metadata(self):
        cfg = config(0.5, 0.3, n=200, reps=8, seed=5)
        report = run_replications(cfg)
        d = report.to_dict()
        assert d["tolerances"]["ks"] == 0.05
        assert d["targets"]["theta_star"] == pytest.approx(16 / 23, abs=1e-14)
        assert len(d["standardized"]["theta"]) == 8


class TestSizePower:
    def test_zero_test_size_smoke(self):
        cfg = config(0.5, 0.0, n=1000, reps=400, seed=2718)
        report = empirical_size_power("zero", cfg)
        assert report.body["test_kind"] == "zero"
        assert 0.01 <= report.body["rejection_rate"] <= 0.12
        assert len(report.body["test_statistics"]) == 400
        assert len(report.body["rejections"]) == 400

    def test_rho0_requires_value(self):
        cfg = config(0.5, 0.3, n=1000, reps=10, seed=1)
        with pytest.raises(DomainError):
            empirical_size_power("rho0", cfg)

    @pytest.mark.parametrize(
        "rho0, message",
        [(None, "test kind 'rho0' needs a rho0 value"), (1.5, "rho0 must lie in (-1, 1)"),
         (float("nan"), "rho0 must lie in (-1, 1)")],
    )
    def test_bad_rho0_fails_before_any_path_is_drawn(self, monkeypatch, rho0, message):
        def no_draw(*args):
            raise AssertionError("simulate_paths was called")

        monkeypatch.setattr(montecarlo, "simulate_paths", no_draw)
        with pytest.raises(DomainError) as exc:
            empirical_size_power("rho0", config(0.5, 0.3, n=1000, reps=10, seed=1), rho0=rho0)
        assert str(exc.value) == message

    def test_unknown_kind(self):
        cfg = config(0.5, 0.3, n=1000, reps=10, seed=1)
        with pytest.raises(DomainError):
            empirical_size_power("wilcoxon", cfg)

    def test_power_smoke(self):
        cfg = config(0.5, 0.3, n=2000, reps=200, seed=999)
        report = empirical_size_power("zero", cfg)
        assert report.body["rejection_rate"] >= 0.95

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

    @pytest.mark.parametrize(
        "k0, n, error, message",
        [(2, 20_000, DomainError, "burn-in k0 must be at least 3"),
         (30_000, 20_000, TooShort, "need at least k0=30000 steps, got 20000")],
    )
    def test_bad_burn_in_fails_before_any_path_is_drawn(self, monkeypatch, k0, n, error, message):
        def no_draw(*args):
            raise AssertionError("simulate_paths was called")

        monkeypatch.setattr(montecarlo, "simulate_paths", no_draw)
        with pytest.raises(error) as exc:
            qsl_check(config(0.5, 0.3, n=n, reps=2, seed=1), "theta", k0=k0)
        assert str(exc.value) == message

    def test_a_theta_block_holds_x_its_trajectory_and_one_block_of_sums(self):
        # at n = 10^5 a block is one path; besides x and theta_hat_k for k = k0..n the walk holds S and P
        # for 2^14 steps, a third of a path here.  Drawing V, eps and X as three arrays peaked at 3.0 paths.
        n = 10**5
        cfg = config(0.5, 0.3, n=n, reps=1, seed=7)
        qsl_check(cfg, "theta")  # loads numpy.random and the recursion loop
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            qsl_check(cfg, "theta")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 2.4 * 8 * (n + 1)

    def test_order_of_magnitude_at_moderate_n(self):
        # at n = 10^4 the log average should already sit near the target
        cfg = config(0.5, 0.3, n=10_000, reps=8, seed=606)
        report = qsl_check(cfg, "theta")
        assert report.body["qsl"]["which"] == "theta"
        assert len(report.body["qsl"]["values"]) == 8
        ratio = report.body["qsl"]["mean"] / report.body["qsl"]["target"]
        assert 0.2 <= ratio <= 3.0

    def test_rho_trajectory_with_uncorrelated_noise(self):
        # rho = 0 with theta = 0.5: the target variance reduces to theta^2
        cfg = config(0.5, 0.0, n=10**6, reps=10, seed=31)
        report = qsl_check(cfg, "rho", threads=8)
        assert report.body["qsl"]["target"] == pytest.approx(0.25, abs=1e-15)
        assert abs(report.body["qsl"]["mean"] - 0.25) <= 0.30 * 0.25


def _peak_paths(run, n: int) -> float:
    """The tracemalloc peak of ``run()``, in arrays of n+1 float64 values."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak / (8 * (n + 1))


@pytest.fixture(scope="module")
def warm_long_checks():
    """One small qsl and lil check per statistic, which load numpy.random and the recursion loop."""
    cfg = config(0.5, 0.3, n=10_000, reps=1, seed=7)
    for which in TRAJECTORIES:
        qsl_check(cfg, which)
        lil_envelope_check(cfg, which, [10_000])


class TestLongPathMemory:
    """At n = 10^6 a block is one path; a worker holds it and at most one path-sized array more."""

    @pytest.mark.parametrize("which", TRAJECTORIES)
    @pytest.mark.parametrize("experiment", ["qsl", "lil"])
    def test_a_block_peaks_near_two_paths(self, warm_long_checks, experiment, which):
        # qsl keeps the summed trajectory and block buffers; lil's refit one scratch row and one
        # chunk of residuals.  Fitting whole prefixes peaked at 3.0 (lil rho) and 4.0 paths (lil
        # dw), and keeping all three trajectories at 4.1 (qsl rho and dw).
        n = 10**6
        cfg = config(0.5, 0.3, n=n, reps=1, seed=7)
        if experiment == "qsl":
            peak = _peak_paths(lambda: qsl_check(cfg, which), n)
        else:
            peak = _peak_paths(lambda: lil_envelope_check(cfg, which, [1000, 10**4, 10**5, n]), n)
        assert peak <= 2.2


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
        with pytest.raises(DomainError, match="^checkpoints must be distinct, 100 is repeated$"):
            lil_envelope_check(cfg, "theta", [100, 5000, 100])

    @pytest.mark.parametrize("checkpoints, shown", [([1000.7, 2000], "1000.7"), (["1e3"], "'1e3'"), ([None], "None")])
    def test_a_checkpoint_that_is_not_an_integer_is_named(self, checkpoints, shown):
        cfg = config(0.5, 0.3, n=10_000, reps=2, seed=1)
        with pytest.raises(DomainError) as exc:
            lil_envelope_check(cfg, "theta", checkpoints)
        assert str(exc.value) == f"checkpoints must be integers, got {shown}"

    @pytest.mark.parametrize("block, n, checkpoints", [
        (1, 300, [16, 17, 18, 300]),
        (7, 2000, [16, 20, 21, 22, 2000]),
        (2**14, 40_000, [16, 2**14 - 1, 2**14, 2**14 + 1, 40_000]),
    ])
    def test_every_chunk_size_matches_the_per_replicate_loop(self, monkeypatch, block, n, checkpoints):
        # checkpoints just before, on and just after an edge of the refit's residual chunks
        # (see tests/test_estimators.py), all three paths in one replicate block
        cfg = config(-0.6, 0.7, n=n, reps=3, seed=77, kind="rademacher")
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 3 * (n + 1))
        for which in TRAJECTORIES:
            rows = _reference_rows("lil", cfg, which=which, checkpoints=checkpoints)
            with monkeypatch.context() as patch:
                patch.setattr(estimators, "_BLOCK", block)
                assert lil_envelope_check(cfg, which, checkpoints).body["lil"]["deviations"] == rows, which

    def test_envelope_smoke(self):
        cfg = config(0.5, 0.3, n=10_000, reps=30, seed=808)
        report = lil_envelope_check(cfg, "theta", [1000, 10_000])
        lil = report.body["lil"]
        assert lil["checkpoints"] == [1000, 10_000]
        assert len(lil["deviations"]) == 30
        assert 0.0 <= lil["exceedance_fraction"] <= 0.2
        assert "envelope" in lil and lil["envelope"] > 0.0
        assert "limsup" in lil["note"]


# ---------------------------------------------------------------------------
# Replicate blocks: every block size gives what one replicate at a time gives
# ---------------------------------------------------------------------------


def _reference_rows(experiment, cfg, rho0=None, which="theta", checkpoints=()):
    """The per-replicate loop: each path simulated and fitted on its own through the one-path API."""
    targets = montecarlo._asymptotic_targets(cfg)
    limit = targets[montecarlo._STATISTICS[which][1]]
    rows = []
    for i in range(cfg.replicates):
        x = simulate(cfg.params, cfg.noise, cfg.n, derive_seed(cfg.base_seed, i)).x
        if experiment == "clt":
            est = estimate_all(x)
            rows.append((est.theta_hat, est.rho_hat, est.sigma2_hat, est.dw, est.theta_sq_hat))
        elif experiment in ("zero", "critical", "rho0"):
            if experiment == "zero":
                outcome = rho_zero_test(x, cfg.alpha)
            elif experiment == "critical":
                outcome = critical_case_test(x, cfg.alpha)
            else:
                outcome, _ = rho_test(x, rho0, cfg.alpha)
            rows.append((outcome.statistic, outcome.reject))
        elif experiment == "qsl":
            track = getattr(running_estimates(x, k0=DEFAULT_BURN_IN), which)
            rows.append(float(np.sum((track - limit) ** 2) / math.log(cfg.n)))
        else:  # lil
            devs = []
            for m in checkpoints:
                prefix = x[: m + 1]
                th = estimate_theta(prefix)
                res = residuals(prefix, th)
                value = {"theta": th, "rho": estimate_rho(res), "dw": dw_statistic(res)}[which]
                devs.append(lil_deviation(value, limit, m))
            rows.append(devs)
    return rows


# experiment: (reference kind, model point, noise, n, replicates, keyword arguments)
_BLOCK_CASES = {
    "clt": ("clt", (0.5, 0.3), "gaussian", 500, 9, {}),
    "size": ("zero", (0.5, 0.0), "uniform", 300, 9, {}),
    "power": ("rho0", (0.5, 0.3), "rademacher", 400, 9, {"rho0": 0.0}),
    "critical": ("critical", (0.4, -0.4), "gaussian", 300, 9, {}),
    "qsl": ("qsl", (0.5, 0.3), "gaussian", 10_000, 5, {"which": "dw"}),
    "qsl-theta": ("qsl", (0.5, 0.3), "uniform", 10_000, 5, {"which": "theta"}),
    "qsl-rho": ("qsl", (-0.6, 0.7), "rademacher", 10_000, 5, {"which": "rho"}),
    "lil": ("lil", (0.5, 0.3), "gaussian", 10_000, 5, {"which": "rho", "checkpoints": [100, 1000, 10_000]}),
    "lil-theta": ("lil", (0.5, 0.3), "uniform", 10_000, 5, {"which": "theta", "checkpoints": [16, 2500, 10_000]}),
    "lil-dw": ("lil", (-0.6, 0.7), "rademacher", 10_000, 5, {"which": "dw", "checkpoints": [500, 10_000]}),
}


def _run(kind, cfg, kwargs, threads):
    if kind == "clt":
        return run_replications(cfg, threads=threads)
    if kind in ("zero", "rho0", "critical"):
        return empirical_size_power(kind, cfg, rho0=kwargs.get("rho0"), threads=threads)
    if kind == "qsl":
        return qsl_check(cfg, kwargs["which"], threads=threads)
    return lil_envelope_check(cfg, kwargs["which"], kwargs["checkpoints"], threads=threads)


class TestReplicateBlocks:
    @pytest.mark.parametrize("experiment", list(_BLOCK_CASES))
    def test_every_block_size_matches_the_per_replicate_loop(self, monkeypatch, experiment):
        kind, (theta, rho), noise, n, reps, kwargs = _BLOCK_CASES[experiment]
        cfg = config(theta, rho, n=n, reps=reps, seed=2024, kind=noise)
        rows = _reference_rows(kind, cfg, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_map_paths", lambda statistic, cfg, threads: list(rows))
            reference = json.dumps(_run(kind, cfg, kwargs, 1).to_dict())
        # blocks of 1, 2, 7, all replicates and more than the replicates
        for size in (1, 2, 7, reps, reps + 3):
            monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", size * (n + 1))
            for threads in (1, 2):
                assert json.dumps(_run(kind, cfg, kwargs, threads).to_dict()) == reference, (size, threads)

    @pytest.mark.parametrize("block", [1, 7, 2**14])
    @pytest.mark.parametrize("experiment", ["qsl", "qsl-rho"])
    def test_every_walk_block_size_matches_the_per_replicate_loop(self, monkeypatch, experiment, block):
        # the walk keeps only the summed trajectory, so its other trajectories cross block edges
        # in block buffers; one replicate, as a block of one step walks 10^4 steps in 0.5 s
        kind, (theta, rho), noise, n, _, kwargs = _BLOCK_CASES[experiment]
        cfg = config(theta, rho, n=n, reps=1, seed=2024, kind=noise)
        rows = _reference_rows(kind, cfg, **kwargs)
        monkeypatch.setattr(estimators, "_BLOCK", block)
        assert qsl_check(cfg, kwargs["which"]).body["qsl"]["values"] == rows

    def test_block_size_follows_the_path_length(self, monkeypatch):
        sizes = []
        real = montecarlo.simulate_paths

        def recording(params, noise, n, seeds):
            sizes.append(len(seeds))
            return real(params, noise, n, seeds)

        monkeypatch.setattr(montecarlo, "simulate_paths", recording)
        run_replications(config(0.5, 0.3, n=5000, reps=30, seed=1))
        assert sizes == [13, 13, 4]  # 2**16 // 5001 = 13
        sizes.clear()
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 100)
        run_replications(config(0.5, 0.3, n=5000, reps=3, seed=1))
        assert sizes == [1, 1, 1]

    def test_one_worker_runs_every_block_in_the_caller(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        pids = montecarlo._map_paths(_pids, config(0.5, 0.3, n=5000, reps=30, seed=1), 1)
        assert pids == [os.getpid()] * 30

    @needs_fork
    def test_two_workers_are_forked_processes(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        pids = montecarlo._map_paths(_pids, config(0.5, 0.3, n=5000, reps=30, seed=1), 2)
        assert len(pids) == 30  # blocks of 13, 13 and 4: shares of two blocks and one
        assert os.getpid() not in pids
        assert len(set(pids)) == 2
        assert pids[:26] == [pids[0]] * 26 and pids[26:] == [pids[26]] * 4

    @needs_fork
    @pytest.mark.parametrize("reps, cpus, workers", [(30, 2, 2), (90, 3, 3), (90, 64, 7), (65, 4, 3), (13, 64, 0)])
    def test_worker_count_is_capped_by_blocks_and_cpus(self, monkeypatch, reps, cpus, workers):
        # 13 replicates to a block, so 30 make 3 blocks, 90 make 7, 65 make 5 and 13 one (run
        # here); at W = 4 the 5 blocks go in shares of 2, so 3 workers suffice
        cfg = config(0.5, 0.3, n=5000, reps=reps, seed=1)
        expected = montecarlo._map_paths(_first_values, cfg, 1)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        pids, values = zip(*montecarlo._map_paths(_pids_and_values, cfg, 10_000))
        assert list(values) == expected
        assert len(set(pids) - {os.getpid()}) == workers
        assert (os.getpid() in pids) == (workers == 0)

    @needs_fork
    def test_a_dying_worker_fails_the_run_instead_of_hanging(self):
        script = (
            "import os\n"
            "from dwlab import montecarlo\n"
            "from dwlab.errors import DWLabError\n"
            "from dwlab.model import ModelParams, NoiseSpec\n"
            "montecarlo._usable_cpus = lambda: 2\n"
            "cfg = montecarlo.McConfig(ModelParams(0.5, 0.3), NoiseSpec(), 5000, 30, 1)\n"
            "try:\n"
            "    montecarlo._map_paths(lambda x: os._exit(3), cfg, 2)\n"
            "except DWLabError as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "DWLabError a Monte Carlo worker process died before finishing its share\n"

    @needs_fork
    def test_a_failing_first_share_does_not_wait_for_the_others(self):
        # one path to a block at n = 10^6: replicate 0 fails in share 0's first block, while
        # share 1 has 20 paths to draw; the run is timed against those 20 drawn here
        script = (
            "import time\n"
            "from dwlab import montecarlo\n"
            "from dwlab.errors import DomainError\n"
            "from dwlab.model import ModelParams, NoiseSpec\n"
            "montecarlo._usable_cpus = lambda: 2\n"
            "params, noise = ModelParams(0.5, 0.3), NoiseSpec()\n"
            "config = lambda reps: montecarlo.McConfig(params, noise, 10**6, reps, 1)\n"
            "first = montecarlo.simulate_paths(params, noise, 10**6, [montecarlo.derive_seed(1, 0)])[0, 1]\n"
            "def statistic(x):\n"
            "    if x[0, 1] == first:\n"
            "        raise DomainError('replicate 0')\n"
            "    return [0.0]\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    montecarlo._map_paths(statistic, config(40), 2)\n"
            "except DomainError as exc:\n"
            "    print(exc)\n"
            "failed = time.perf_counter() - start\n"
            "start = time.perf_counter()\n"
            "montecarlo._map_paths(lambda x: [0.0], config(20), 1)\n"
            "print(failed, time.perf_counter() - start)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_fresh_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        message, times = proc.stdout.splitlines()
        assert message == "replicate 0"
        failed, share = map(float, times.split())
        assert failed < share / 3, (failed, share)

    @pytest.mark.parametrize("size", [1, 2, 7, 100, 103])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_degenerate_replicate_raises_its_own_error(self, monkeypatch, size, threads):
        # replicate 61 is the first whose theta^2 plug-in is negative; it sits past
        # the first block for most block sizes, and later blocks fail too
        cfg = config(0.25, 0.0, n=2000, reps=100, seed=4)
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", size * (cfg.n + 1))
        with pytest.raises(DegenerateStatistic, match=r"^theta\^2 plug-in -0\.0159358 outside \(0, 1\)"):
            empirical_size_power("critical", cfg, threads=threads)

    @pytest.mark.parametrize("size", [1, 2, 7, 40, 41])
    def test_a_failing_block_reports_its_first_failing_row(self, monkeypatch, size):
        # the block raises naming its largest offending value; the rows rerun one at
        # a time, so the error names the first offending replicate, as at B = 1
        def statistic(x):
            bad = [row[1] for row in x if row[1] > 1.0]
            if bad:
                raise DomainError(repr(max(bad)))
            return [0.0] * len(x)

        cfg = config(0.5, 0.3, n=100, reps=40, seed=9)
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 1)
        with pytest.raises(DomainError) as first:
            montecarlo._map_paths(statistic, cfg, 1)
        monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", size * (cfg.n + 1))
        for threads in (1, 2):
            with pytest.raises(DomainError) as blocked:
                montecarlo._map_paths(statistic, cfg, threads)
            assert str(blocked.value) == str(first.value)


def _stat(pid: int):
    """Parent pid and state letter of process ``pid`` from /proc, or None once it is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return None
    state, ppid = text.rpartition(")")[2].split()[:2]
    return int(ppid), state


def _children(pid: int) -> list:
    return [int(p.name) for p in Path("/proc").iterdir() if p.name.isdigit() and (_stat(p.name) or (0,))[0] == pid]


def _alive(pids) -> list:
    """The processes of ``pids`` still running: neither gone nor exited and waiting to be reaped."""
    return [pid for pid in pids if (stat := _stat(pid)) is not None and stat[1] != "Z"]


# one path to a block at n = 10^6, so each of the two workers has 100 blocks to run
_LONG_VERIFY = ["-m", "dwlab", "verify", "--experiment", "qsl", "--theta", "0.5", "--rho", "0.3",
                "--n", "1000000", "--reps", "200", "--seed", "1", "--threads", "2"]


@contextmanager
def _running_workers(*args: str):
    """Start ``python *args`` in a session of its own and wait for its two forked workers.

    Yields the process and the workers' pids.  On leaving, the whole process
    group is killed, so a failing test leaves no worker running.
    """
    proc = subprocess.Popen([sys.executable, *args], env=_fresh_env(), start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while len(workers := _children(proc.pid)) < 2:
            assert proc.poll() is None, proc.returncode
            assert time.monotonic() < deadline, "the workers never started"
            time.sleep(0.01)
        yield proc, workers
    finally:
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)


def _wait_until_gone(pids, seconds: float) -> list:
    deadline = time.monotonic() + seconds
    while _alive(pids) and time.monotonic() < deadline:
        time.sleep(0.01)
    return _alive(pids)


@needs_fork
@needs_linux
class TestWorkerLifetime:
    @pytest.mark.parametrize("signum", [signal.SIGKILL, signal.SIGTERM])
    def test_workers_die_with_a_killed_parent(self, signum):
        with _running_workers(*_LONG_VERIFY) as (proc, workers):
            os.kill(proc.pid, signum)
            assert proc.wait(timeout=10) == -signum
            assert _wait_until_gone(workers, 2.0) == []

    def test_an_interrupt_ends_the_run_at_once_and_leaves_no_process(self):
        with _running_workers(*_LONG_VERIFY) as (proc, workers):
            os.killpg(proc.pid, signal.SIGINT)
            start = time.monotonic()
            proc.wait(timeout=10)
            assert time.monotonic() - start < 1.0
            assert _alive(workers) == []


# |theta| < 1, so the path could be drawn, but outside the limits' region |theta| < 1 - 1e-9
_OUT_OF_REGION = {
    "clt": lambda cfg: run_replications(cfg, threads=2),
    "size": lambda cfg: empirical_size_power("zero", cfg, threads=2),
    "power": lambda cfg: empirical_size_power("rho0", cfg, rho0=0.1, threads=2),
    "critical": lambda cfg: empirical_size_power("critical", cfg, threads=2),
    "qsl": lambda cfg: qsl_check(cfg, "theta", threads=2),
    "lil": lambda cfg: lil_envelope_check(cfg, "theta", [cfg.n], threads=2),
}


@pytest.mark.parametrize("experiment", list(_OUT_OF_REGION))
def test_out_of_region_point_fails_before_any_path_is_drawn(monkeypatch, experiment):
    def no_draw(*args):
        raise AssertionError("simulate_paths was called")

    monkeypatch.setattr(montecarlo, "simulate_paths", no_draw)
    with pytest.raises(OutOfRegion, match="^parameter out of admissible region: theta$"):
        _OUT_OF_REGION[experiment](config(0.9999999999, 0.3, n=10_000, reps=3000, seed=1))
