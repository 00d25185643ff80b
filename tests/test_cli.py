import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dwlab.cli import main
from dwlab.estimators import estimate_all
from dwlab.model import ModelParams, NoiseSpec, read_csv, simulate


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a new interpreter with the package's src directory on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("DW_LAB_THREADS", None)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_manifest(payload: str) -> dict:
    data = json.loads(payload)
    data.pop("manifest", None)
    return data


class TestLimitsCommand:
    def test_trivial_point(self, capsys):
        code, out, _ = run_cli(capsys, "limits", "--theta", "0", "--rho", "0")
        assert code == 0
        data = json.loads(out)
        assert data["limits"]["theta_star"] == 0.0
        assert data["limits"]["d_star"] == 2.0
        assert data["manifest"]["rng_algorithm"] == "philox4x64"
        assert data["manifest"]["artifact_version"]

    def test_byte_identical_except_timestamp(self, capsys):
        _, a, _ = run_cli(capsys, "limits", "--theta", "0.5", "--rho", "0.3")
        _, b, _ = run_cli(capsys, "limits", "--theta", "0.5", "--rho", "0.3")
        da, db = json.loads(a), json.loads(b)
        da["manifest"].pop("timestamp")
        db["manifest"].pop("timestamp")
        assert json.dumps(da) == json.dumps(db)

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "limits", "--theta", "1.5", "--rho", "0")
        assert code == 2
        assert "error" in err


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "limits", "--theta", "0.5")
        assert code == 1
        assert "usage" in err

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0


class TestSimulateEstimate:
    def test_pipeline_via_stdin(self, capsys, monkeypatch):
        code, csv_text, _ = run_cli(
            capsys, "simulate", "--theta", "0.5", "--rho", "0.3", "--n", "1000", "--seed", "42"
        )
        assert code == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(csv_text))
        code, out, _ = run_cli(capsys, "estimate")
        assert code == 0
        est = json.loads(out)["estimates"]
        assert est["n"] == 1000
        assert len(est["residuals"]) == 1001
        assert 0.5 < est["theta_hat"] < 0.9

    def test_csv_round_trip_matches_memory(self, capsys, tmp_path):
        dest = tmp_path / "path.csv"
        code, _, _ = run_cli(
            capsys,
            "simulate", "--theta", "0.5", "--rho", "0.3", "--n", "500",
            "--seed", "7", "--output", str(dest),
        )
        assert code == 0
        series = simulate(ModelParams(theta=0.5, rho=0.3), NoiseSpec(), 500, 7)
        ingested = read_csv(dest)
        assert np.array_equal(ingested.x, series.x)
        code, out, _ = run_cli(capsys, "estimate", "--input", str(dest))
        est = json.loads(out)["estimates"]
        direct = estimate_all(series.x)
        assert est["theta_hat"] == direct.theta_hat
        assert est["rho_hat"] == direct.rho_hat
        assert est["sigma2_hat"] == direct.sigma2_hat
        assert est["dw"] == direct.dw

    def test_trajectories_file(self, capsys, tmp_path):
        src = tmp_path / "p.csv"
        traj = tmp_path / "traj.csv"
        run_cli(capsys, "simulate", "--theta", "0.3", "--rho", "0.1", "--n", "200",
                "--seed", "3", "--output", str(src))
        code, _, _ = run_cli(capsys, "estimate", "--input", str(src), "--trajectories", str(traj))
        assert code == 0
        lines = traj.read_text().splitlines()
        assert lines[0] == "k,theta_hat,rho_hat,dw"
        assert len(lines) == 200 - 10 + 2  # header + k0..n

    def test_missing_file_is_data_error(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--input", "/nonexistent/file.csv")
        assert code == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_csv_is_data_error(self, capsys, tmp_path, bad):
        src = tmp_path / "bad.csv"
        src.write_text("\n".join(["0.1", "0.4", bad, "0.2", "-0.3", "0.5"]) + "\n")
        for command in ("estimate", "test"):
            extra = ["--kind", "zero", "--alpha", "0.05"] if command == "test" else []
            code, out, err = run_cli(capsys, command, "--input", str(src), *extra)
            assert code == 2
            assert out == ""
            assert "non-finite" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_values_are_data_error(self, capsys, tmp_path):
        # finite input whose squares overflow would put NaN in the JSON
        src = tmp_path / "huge.csv"
        src.write_text("\n".join(["1e200", "-3e200", "2e200", "1e200", "5e199"]) + "\n")
        code, out, err = run_cli(capsys, "estimate", "--input", str(src))
        assert code == 2
        assert out == ""
        assert "not finite" in err


class TestTestCommand:
    @pytest.fixture()
    def series_csv(self, capsys, tmp_path):
        dest = tmp_path / "s.csv"
        run_cli(capsys, "simulate", "--theta", "0.5", "--rho", "0.3", "--n", "4000",
                "--seed", "11", "--output", str(dest))
        return str(dest)

    def test_zero_kind(self, capsys, series_csv):
        code, out, _ = run_cli(capsys, "test", "--input", series_csv, "--kind", "zero",
                               "--alpha", "0.05")
        assert code == 0
        data = json.loads(out)
        assert data["test"]["kind"] == "rho_equals_zero"
        assert data["test"]["reject"] is True

    def test_rho0_kind_includes_weights(self, capsys, series_csv):
        code, out, _ = run_cli(capsys, "test", "--input", series_csv, "--kind", "rho0",
                               "--rho0", "0.3", "--alpha", "0.05")
        assert code == 0
        data = json.loads(out)
        assert data["test"]["reject"] is False
        assert data["weights"]["tau2"] > 0
        assert len(data["weights"]["gamma_hat"]) == 2

    def test_rho0_kind_needs_rho0(self, capsys, series_csv):
        code, _, err = run_cli(capsys, "test", "--input", series_csv, "--kind", "rho0",
                               "--alpha", "0.05")
        assert code == 2

    def test_auto_kind(self, capsys, series_csv):
        code, out, _ = run_cli(capsys, "test", "--input", series_csv, "--kind", "auto",
                               "--rho0", "0.3", "--alpha", "0.05")
        assert code == 0
        data = json.loads(out)
        assert data["branch"] == "general"
        assert data["preliminary"]["kind"] == "critical_case"
        assert data["test"]["kind"] == "rho_equals_rho0"


class TestRecoverCommand:
    def test_recover_from_file(self, capsys, tmp_path):
        dest = tmp_path / "r.csv"
        run_cli(capsys, "simulate", "--theta", "0.3", "--rho", "0.5", "--n", "50000",
                "--seed", "21", "--output", str(dest))
        code, out, _ = run_cli(capsys, "recover", "--input", str(dest))
        assert code == 0
        rec = json.loads(out)["recovered"]
        assert rec["convention"] == "theta_less"
        assert abs(rec["theta_rec"] - 0.3) < 0.05
        assert abs(rec["rho_rec"] - 0.5) < 0.05
        assert abs(rec["sigma2_rec"] - 1.0) < 0.1


class TestVerifyCommand:
    def test_size_experiment(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--experiment", "size", "--theta", "0.5", "--rho", "0",
            "--n", "1000", "--reps", "300", "--alpha", "0.05", "--seed", "7",
        )
        assert code == 0
        report = json.loads(out)["report"]
        assert report["experiment"] == "size"
        assert 0.01 <= report["rejection_rate"] <= 0.12
        assert json.loads(out)["manifest"]["seed"] == 7

    def test_csv_dump(self, capsys, tmp_path):
        dump = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            capsys,
            "verify", "--experiment", "clt", "--theta", "0.5", "--rho", "0.3",
            "--n", "500", "--reps", "50", "--seed", "3", "--csv", str(dump),
        )
        assert code == 0
        lines = dump.read_text().splitlines()
        assert lines[0].startswith("replicate,theta_hat")
        assert len(lines) == 51

    def test_qsl_experiment(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--experiment", "qsl", "--theta", "0.5", "--rho", "0.3",
            "--n", "10000", "--reps", "3", "--seed", "5", "--which", "rho",
        )
        assert code == 0
        report = json.loads(out)["report"]
        assert report["qsl"]["which"] == "rho"

    def test_lil_experiment(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--experiment", "lil", "--theta", "0.5", "--rho", "0.3",
            "--n", "10000", "--reps", "5", "--seed", "6",
            "--checkpoints", "1000,10000",
        )
        assert code == 0
        report = json.loads(out)["report"]
        assert report["lil"]["checkpoints"] == [1000, 10000]

    def test_negative_seed_rejected_like_simulate(self, capsys):
        code, _, err = run_cli(
            capsys,
            "verify", "--experiment", "clt", "--theta", "0.5", "--rho", "0.3",
            "--n", "200", "--reps", "2", "--seed", "-5",
        )
        assert code == 2
        assert "seed" in err
        assert run_cli(capsys, "simulate", "--theta", "0.5", "--rho", "0.3", "--n", "10", "--seed", "-5")[0] == 2

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_rejected(self, capsys, monkeypatch, threads):
        monkeypatch.setenv("DW_LAB_THREADS", "2")
        code, _, err = run_cli(
            capsys,
            "verify", "--experiment", "clt", "--theta", "0.5", "--rho", "0.3",
            "--n", "200", "--reps", "2", "--seed", "1", "--threads", threads,
        )
        assert code == 2
        assert "--threads" in err

    def test_threads_flag_and_env(self, capsys, monkeypatch):
        args = ["verify", "--experiment", "clt", "--theta", "0.2", "--rho", "0.1",
                "--n", "300", "--reps", "40", "--seed", "9"]
        _, base, _ = run_cli(capsys, *args)
        monkeypatch.setenv("DW_LAB_THREADS", "6")
        _, with_env, _ = run_cli(capsys, *args)
        monkeypatch.delenv("DW_LAB_THREADS")
        _, with_flag, _ = run_cli(capsys, *args, "--threads", "3")
        assert strip_manifest(base) == strip_manifest(with_env) == strip_manifest(with_flag)


class TestEntryPoint:
    def test_python_m_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dwlab", "limits", "--theta", "0", "--rho", "0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["limits"]["d_star"] == 2.0


class TestOverflow:
    @pytest.mark.parametrize(
        "command",
        [["estimate"], ["test", "--kind", "zero", "--alpha", "0.05"], ["test", "--kind", "critical", "--alpha", "0.05"]],
    )
    def test_overflowing_sums_fail_cleanly(self, tmp_path, command):
        src = tmp_path / "huge.csv"
        src.write_text("\n".join(["1e200", "-3e200", "2e200", "1e200", "5e199"]) + "\n")
        proc = run_fresh("-m", "dwlab", *command, "--input", str(src))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "theta_hat is not finite" in proc.stderr
        assert "overflow" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr


class TestDeferredScipyImport:
    def test_reading_commands_do_not_load_scipy_signal(self, tmp_path):
        src = tmp_path / "s.csv"
        src.write_text("\n".join(["0.3", "-0.1", "0.8", "0.4", "-0.6", "0.2", "0.9"]) + "\n")
        script = (
            "import sys, dwlab.cli\n"
            "assert 'scipy.signal' not in sys.modules, 'loaded by import'\n"
            "assert dwlab.cli.main(['limits', '--theta', '0.5', '--rho', '0.3']) == 0\n"
            f"assert dwlab.cli.main(['estimate', '--input', {str(src)!r}]) == 0\n"
            "assert 'scipy.signal' not in sys.modules, 'loaded by a command'\n"
        )
        proc = run_fresh("-c", script)
        assert proc.returncode == 0, proc.stderr

    def test_first_simulate_under_a_pool_is_thread_count_invariant(self):
        # a fresh process imports scipy.signal during the run, which the in-process tests cannot see
        args = ["-m", "dwlab", "verify", "--experiment", "clt", "--theta", "0.5", "--rho", "0.3",
                "--n", "200", "--reps", "8", "--seed", "3"]
        one, two = run_fresh(*args, "--threads", "1"), run_fresh(*args, "--threads", "2")
        assert one.returncode == two.returncode == 0, one.stderr + two.stderr
        assert strip_manifest(one.stdout) == strip_manifest(two.stdout)
