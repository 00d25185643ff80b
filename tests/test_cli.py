import ast
import csv
import ctypes
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import numpy as np
import pytest

import dwlab.cli
from dwlab.cli import _emit, _json_default, build_parser, main
from dwlab.errors import DomainError
from dwlab.estimators import estimate_all, running_estimates
from dwlab.model import ModelParams, NoiseSpec, read_csv, simulate, write_csv


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_fresh(*args: str, stdin=None, env_updates: Optional[dict] = None) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a new interpreter with the package's src directory on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("DW_LAB_THREADS", None)
    env.update(env_updates or {})
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, stdin=stdin)


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
        # estimate reads the bytes under sys.stdin, as it does on a real stdin
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(csv_text.encode())))
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

    def test_trajectories_match_csv_writer_bytes(self, capsys, tmp_path):
        src = tmp_path / "p.csv"
        traj_file = tmp_path / "traj.csv"
        run_cli(capsys, "simulate", "--theta", "-0.6", "--rho", "0.7", "--n", "3000",
                "--seed", "19", "--output", str(src))
        code, _, _ = run_cli(capsys, "estimate", "--input", str(src), "--trajectories", str(traj_file), "--k0", "25")
        assert code == 0
        # the row-by-row csv.writer dump that the trajectories file must reproduce byte for byte
        traj = running_estimates(read_csv(src).x, k0=25)
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["k", "theta_hat", "rho_hat", "dw"])
        for k, th, rh, dw in zip(traj.k, traj.theta, traj.rho, traj.dw):
            w.writerow([int(k), repr(float(th)), repr(float(rh)), repr(float(dw))])
        assert traj_file.read_bytes() == buf.getvalue().encode()

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
        assert err == "error: --kind rho0 requires --rho0\n"

    def test_auto_kind_needs_rho0_after_the_input_is_read(self, capsys, series_csv, tmp_path):
        code, _, err = run_cli(capsys, "test", "--input", series_csv, "--kind", "auto", "--alpha", "0.05")
        assert (code, err) == (2, "error: --kind auto requires --rho0\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("x\n1\nnan\n2\n")
        code, _, err = run_cli(capsys, "test", "--input", str(bad), "--kind", "auto", "--alpha", "0.05")
        assert (code, err) == (2, "error: non-finite value nan in CSV column 0, data row 1\n")

    def test_auto_kind_rejects_rho0_outside_the_interval(self, capsys, tmp_path):
        # this path takes the critical branch, where rho0^2 = 2.25 would replace the theta^2 plug-in
        dest = tmp_path / "c.csv"
        run_cli(capsys, "simulate", "--theta", "0.4", "--rho", "-0.4", "--n", "3000", "--seed", "5",
                "--output", str(dest))
        for kind in ("auto", "rho0"):
            code, out, err = run_cli(capsys, "test", "--input", str(dest), "--kind", kind, "--rho0", "1.5",
                                     "--alpha", "0.05")
            assert (code, out, err) == (2, "", "error: rho0 must lie in (-1, 1)\n")

    def test_auto_kind_names_rho0_when_the_critical_branch_is_undefined(self, capsys, tmp_path):
        # the preliminary test accepts theta = -rho here (statistic 1.54 < 3.84)
        dest = tmp_path / "c.csv"
        run_cli(capsys, "simulate", "--theta", "0.5", "--rho", "-0.5", "--n", "5000", "--seed", "3",
                "--output", str(dest))
        code, out, err = run_cli(capsys, "test", "--input", str(dest), "--kind", "auto", "--rho0", "0",
                                 "--alpha", "0.05")
        message = "error: theta = -rho accepted: the rho = rho0 test is undefined at rho0 = 0\n"
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize("alpha", ["0", "1", "nan"])
    def test_alpha_is_checked_alike_by_test_and_verify(self, capsys, series_csv, alpha):
        message = "error: significance level must satisfy 0 < alpha < 1\n"
        for argv in (
            ["test", "--input", series_csv, "--kind", "zero"],
            ["verify", "--experiment", "clt", "--theta", "0.5", "--rho", "0.3", "--n", "200", "--reps", "2",
             "--seed", "1"],
        ):
            assert run_cli(capsys, *argv, "--alpha", alpha) == (2, "", message)

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


def _reference_verify_csv(report: dict) -> str:
    # the row-by-row csv.writer dump, one branch per report shape, that verify --csv must reproduce
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if report.get("estimates") is not None:
        names = list(report["estimates"])
        w.writerow(["replicate"] + names)
        for i in range(report["replicates"]):
            w.writerow([i] + [repr(report["estimates"][n][i]) for n in names])
    elif report.get("test_statistics") is not None:
        w.writerow(["replicate", "statistic", "reject"])
        for i, (s, r) in enumerate(zip(report["test_statistics"], report["rejections"])):
            w.writerow([i, repr(s), int(r)])
    elif report.get("qsl") is not None:
        w.writerow(["replicate", "qsl_value"])
        for i, v in enumerate(report["qsl"]["values"]):
            w.writerow([i, repr(v)])
    elif report.get("lil") is not None:
        cols = [f"deviation_{m}" for m in report["lil"]["checkpoints"]]
        w.writerow(["replicate"] + cols)
        for i, devs in enumerate(report["lil"]["deviations"]):
            w.writerow([i] + [repr(v) for v in devs])
    return buf.getvalue()


_SHARED_KEYS = [
    "experiment", "theta", "rho", "sigma2", "noise", "n", "replicates", "base_seed", "alpha", "targets", "tolerances",
]
_CLT_KEYS = ["estimates", "standardized", "ks", "sample_cov", "notes"]
_TEST_KEYS = ["rejection_rate", "test_kind", "test_statistics", "rejections", "notes"]


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "experiment, keys",
        [
            (["clt", "--theta", "0.5", "--rho", "0.3", "--n", "500", "--reps", "30"], _CLT_KEYS),
            (["clt", "--theta", "0.5", "--rho", "0.3", "--n", "500", "--reps", "1"],
             ["estimates", "standardized", "ks", "notes"]),
            (["joint", "--theta", "0.4", "--rho", "-0.2", "--n", "500", "--reps", "20"], _CLT_KEYS),
            (["size", "--theta", "0.5", "--rho", "0", "--n", "1000", "--reps", "60"], _TEST_KEYS),
            (["power", "--theta", "0.5", "--rho", "0.08", "--n", "1000", "--reps", "40"], _TEST_KEYS),
            (["power", "--test-kind", "rho0", "--rho0", "0.3", "--theta", "0.5", "--rho", "0.1", "--n", "1000",
              "--reps", "40"],
             ["rejection_rate", "test_kind", "rho0", "test_statistics", "rejections", "notes"]),
            (["critical", "--theta", "0.5", "--rho", "-0.5", "--n", "1000", "--reps", "60"], _TEST_KEYS),
            (["qsl", "--theta", "0.5", "--rho", "0.3", "--n", "10000", "--reps", "3", "--which", "dw"],
             ["qsl", "notes"]),
            (["lil", "--theta", "0.5", "--rho", "0.3", "--n", "10000", "--reps", "4", "--which", "rho",
              "--checkpoints", "1000,10000,5000"],
             ["lil", "notes"]),
        ],
        ids=["clt", "clt-one-rep", "joint", "size", "power", "power-rho0", "critical", "qsl", "lil"],
    )
    def test_csv_dump_matches_csv_writer_bytes(self, capsys, tmp_path, experiment, keys):
        dump = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "verify", "--experiment", *experiment, "--seed", "8", "--csv", str(dump))
        assert code == 0
        report = json.loads(out)["report"]
        assert list(report) == _SHARED_KEYS + keys
        assert report["experiment"] == experiment[0]
        if "rejections" in report:
            assert set(report["rejections"]) == {False, True}  # both 0 and 1 in the reject column
        assert dump.read_bytes() == _reference_verify_csv(report).encode()

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

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_env_threads_below_one_rejected(self, capsys, monkeypatch, threads):
        monkeypatch.setenv("DW_LAB_THREADS", threads)
        code, out, err = run_cli(
            capsys,
            "verify", "--experiment", "clt", "--theta", "0.5", "--rho", "0.3",
            "--n", "200", "--reps", "2", "--seed", "1",
        )
        assert (code, out, err) == (2, "", f"error: DW_LAB_THREADS must be at least 1, got '{threads}'\n")

    @pytest.mark.parametrize(
        "checkpoints, token", [("100,abc", "abc"), ("100,,200", ""), ("1e3", "1e3"), ("", "")]
    )
    def test_malformed_checkpoints_rejected(self, capsys, checkpoints, token):
        code, out, err = run_cli(
            capsys,
            "verify", "--experiment", "lil", "--theta", "0.5", "--rho", "0.3",
            "--n", "1000", "--reps", "2", "--seed", "1", "--checkpoints", checkpoints,
        )
        message = f"error: --checkpoints must be comma-separated integers, got {token!r}\n"
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize(
        "experiment",
        [
            ["clt"],
            ["joint"],
            ["size"],
            ["power", "--test-kind", "rho0", "--rho0", "0.1"],
            ["critical"],
            ["qsl", "--n", "10000"],
            ["lil"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_report_names_its_experiment(self, capsys, experiment):
        name, *extra = experiment
        n = [] if "--n" in extra else ["--n", "300"]
        code, out, _ = run_cli(
            capsys,
            "verify", "--experiment", name, "--theta", "0.4", "--rho", "-0.3",
            *n, "--reps", "2", "--seed", "1", *extra,
        )
        assert code == 0
        assert json.loads(out)["report"]["experiment"] == name

    @pytest.mark.parametrize(
        "k0, n, message",
        [("2", "20000", "burn-in k0 must be at least 3"), ("30000", "20000", "need at least k0=30000 steps, got 20000")],
    )
    def test_qsl_rejects_a_bad_burn_in_before_drawing(self, capsys, monkeypatch, k0, n, message):
        def no_draw(*args):
            raise AssertionError("simulate_paths was called")

        monkeypatch.setattr("dwlab.montecarlo.simulate_paths", no_draw)
        code, out, err = run_cli(
            capsys,
            "verify", "--experiment", "qsl", "--theta", "0.5", "--rho", "0.3",
            "--n", n, "--reps", "2", "--seed", "1", "--k0", k0,
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_bad_rho0_rejected_before_drawing(self, capsys, monkeypatch):
        def no_draw(*args):
            raise AssertionError("simulate_paths was called")

        monkeypatch.setattr("dwlab.montecarlo.simulate_paths", no_draw)
        code, out, err = run_cli(
            capsys,
            "verify", "--experiment", "power", "--test-kind", "rho0", "--rho0", "1.5", "--theta", "0.5",
            "--rho", "0.3", "--n", "1000", "--reps", "2", "--seed", "1",
        )
        assert (code, out, err) == (2, "", "error: rho0 must lie in (-1, 1)\n")

    def test_critical_experiment_checks_the_model_point_before_drawing(self, capsys, monkeypatch):
        def no_draw(*args):
            raise AssertionError("simulate_paths was called")

        monkeypatch.setattr("dwlab.montecarlo.simulate_paths", no_draw)
        code, out, err = run_cli(
            capsys,
            "verify", "--experiment", "critical", "--theta", "0.9999999999", "--rho", "0.3",
            "--n", "5000", "--reps", "3000", "--seed", "1", "--threads", "2",
        )
        assert (code, out, err) == (2, "", "error: parameter out of admissible region: theta\n")

    @pytest.mark.parametrize("kind, rho0", [("zero", "1.5"), ("critical", "0.2"), ("rho0", "0.2")])
    def test_report_shows_rho0_only_for_the_rho0_kind(self, capsys, kind, rho0):
        code, out, _ = run_cli(
            capsys,
            "verify", "--experiment", "power", "--test-kind", kind, "--rho0", rho0, "--theta", "0.4",
            "--rho", "-0.3", "--n", "300", "--reps", "2", "--seed", "1",
        )
        assert code == 0
        assert json.loads(out)["report"].get("rho0") == (0.2 if kind == "rho0" else None)

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_zero_noise_variance_rejected(self, capsys, command):
        extra = ["--experiment", "clt", "--reps", "2"] if command == "verify" else []
        code, out, err = run_cli(
            capsys, command, *extra, "--theta", "0.5", "--rho", "0.3", "--n", "200", "--seed", "1", "--sigma2", "0"
        )
        assert (code, out, err) == (2, "", "error: noise variance must be positive and finite\n")

    @pytest.mark.parametrize("sigma2", ["0", "nan"])
    def test_limits_rejects_noise_variance_alike(self, capsys, sigma2):
        code, out, err = run_cli(capsys, "limits", "--theta", "0.5", "--rho", "0.3", "--sigma2", sigma2)
        assert (code, out, err) == (2, "", "error: noise variance must be positive and finite\n")

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


class TestBadCsvText:
    @pytest.mark.parametrize(
        "data",
        [b"\xff\n0.5\n1.0\n0.2\n", b"x\n" + b"0.5\n" * 5000 + b"\xff\n1.0\n"],
        ids=["first_row", "past_first_buffer"],
    )
    def test_undecodable_bytes_are_a_data_error(self, tmp_path, data):
        src = tmp_path / "bad.csv"
        src.write_bytes(data)
        proc = run_fresh("-X", "utf8", "-m", "dwlab", "estimate", "--input", str(src))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "error: CSV input is not valid utf-8 text (invalid start byte: 0xff)" in proc.stderr
        assert "Traceback" not in proc.stderr

    # (interpreter options, environment): the default, and a C locale with and without
    # its coercion to UTF-8; the last decodes an open() without encoding as ascii
    LOCALES = [
        ([], {}),
        ([], {"LC_ALL": "C", "PYTHONUTF8": "", "PYTHONIOENCODING": ""}),
        (["-X", "utf8=0"], {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONIOENCODING": ""}),
    ]

    @pytest.mark.parametrize("options, env", LOCALES, ids=["default", "c_locale", "c_locale_ascii"])
    @pytest.mark.parametrize(
        "data, reason",
        [
            (b"\xff\n0.5\n1.0\n0.2\n", "invalid start byte: 0xff"),
            (b"x\n" + b"0.5\n" * 5000 + b"\xff\n1.0\n", "invalid start byte: 0xff"),
            (b"x\n0.5\n\xe9\n", "invalid continuation byte: 0xe9"),
        ],
        ids=["first_row", "past_first_buffer", "cut_sequence"],
    )
    def test_stdin_and_file_report_bad_bytes_alike(self, tmp_path, options, env, data, reason):
        src = tmp_path / "bad.csv"
        src.write_bytes(data)
        from_file = run_fresh(*options, "-m", "dwlab", "estimate", "--input", str(src), env_updates=env)
        with open(src, "rb") as fh:
            from_stdin = run_fresh(*options, "-m", "dwlab", "estimate", "--input", "-", stdin=fh, env_updates=env)
        for proc in (from_file, from_stdin):
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr == f"error: CSV input is not valid utf-8 text ({reason})\n"

    def test_over_long_field_is_a_data_error(self, tmp_path):
        src = tmp_path / "long_field.csv"
        src.write_text("x\n" + "1" * 200_000 + "\n0.5\n")
        proc = run_fresh("-m", "dwlab", "estimate", "--input", str(src))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: malformed CSV input: field larger than field limit (131072)\n"

    def test_non_finite_value_is_printed_plainly(self, tmp_path):
        src = tmp_path / "nan.csv"
        src.write_text("\n".join(["0.1", "0.4", "nan", "0.2", "-0.3", "0.5"]) + "\n")
        proc = run_fresh("-m", "dwlab", "estimate", "--input", str(src))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: non-finite value nan in CSV column 0, data row 2\n"


class TestDeferredScipyImport:
    def test_reading_commands_do_not_load_scipy_signal(self, tmp_path):
        src = tmp_path / "s.csv"
        src.write_text("\n".join(["0.3", "-0.1", "0.8", "0.4", "-0.6", "0.2", "0.9"]) + "\n")
        path = ["--theta", "0.5", "--rho", "0.3", "--seed", "2"]
        script = (
            "import sys, dwlab.cli\n"
            "assert 'scipy.signal' not in sys.modules, 'loaded by import'\n"
            "assert dwlab.cli.main(['limits', '--theta', '0.5', '--rho', '0.3']) == 0\n"
            f"assert dwlab.cli.main(['estimate', '--input', {str(src)!r}]) == 0\n"
            "assert 'scipy.signal' not in sys.modules, 'loaded by a reading command'\n"
            f"assert dwlab.cli.main(['simulate', *{path!r}, '--n', '50',"
            f" '--output', {str(tmp_path / 'p.csv')!r}]) == 0\n"
            # 13 replicates to a block at n = 5000, so two forked workers simulate three blocks
            f"assert dwlab.cli.main(['verify', '--experiment', 'clt', *{path!r}, '--n', '5000', '--reps', '30',"
            " '--threads', '2']) == 0\n"
            "assert 'scipy.signal' not in sys.modules, 'loaded by simulating a path'\n"
        )
        proc = run_fresh("-c", script)
        assert proc.returncode == 0, proc.stderr

    def test_first_simulate_under_a_pool_is_thread_count_invariant(self):
        # a fresh process loads scipy's filter extension during the run, which the in-process tests cannot see
        args = ["-m", "dwlab", "verify", "--experiment", "clt", "--theta", "0.5", "--rho", "0.3",
                "--n", "200", "--reps", "8", "--seed", "3"]
        one, two = run_fresh(*args, "--threads", "1"), run_fresh(*args, "--threads", "2")
        assert one.returncode == two.returncode == 0, one.stderr + two.stderr
        assert strip_manifest(one.stdout) == strip_manifest(two.stdout)

    def test_first_call_does_not_read_sysconfig(self):
        # while one thread fills sysconfig's config cache, another reads None from get_config_var
        script = (
            "import sysconfig\n"
            "from dwlab.model import ModelParams, NoiseSpec, simulate\n"
            "sysconfig.get_config_var = lambda *names: None\n"
            "print(simulate(ModelParams(0.5, 0.3), NoiseSpec(), 100, 7).x.tobytes().hex())\n"
        )
        proc = run_fresh("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == simulate(ModelParams(0.5, 0.3), NoiseSpec(), 100, 7).x.tobytes().hex() + "\n"

    def test_first_calls_from_four_threads_at_once_agree(self):
        script = (
            "import threading\n"
            "from dwlab.model import ModelParams, NoiseSpec, simulate_paths\n"
            "barrier = threading.Barrier(4, timeout=60)\n"
            "rows = [None] * 4\n"
            "def first_call(i):\n"
            "    barrier.wait()\n"
            "    rows[i] = simulate_paths(ModelParams(0.5, 0.3), NoiseSpec(), 100_000, [7])[0].tobytes()\n"
            "workers = [threading.Thread(target=first_call, args=(i,)) for i in range(4)]\n"
            "for w in workers: w.start()\n"
            "for w in workers: w.join(timeout=60)\n"
            "assert not any(w.is_alive() for w in workers), 'a first call hung'\n"
            "assert None not in rows and len(set(rows)) == 1, 'a first call failed or the rows differ'\n"
        )
        proc = run_fresh("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""


def _runs_agree_across_workers(tmp_path, *args: str) -> dict:
    """Run ``python *args`` at 1, 2 and 3 workers; the JSON and the --csv dumps must match. Returns the JSON."""
    runs = [run_fresh(*args, "--threads", t, "--csv", str(tmp_path / f"{t}.csv")) for t in "123"]
    assert all(r.returncode == 0 for r in runs), "".join(r.stderr for r in runs)
    reports = [json.dumps(strip_manifest(r.stdout)) for r in runs]
    assert reports == reports[:1] * 3
    dumps = [(tmp_path / f"{t}.csv").read_bytes() for t in "123"]
    assert dumps == dumps[:1] * 3
    return json.loads(reports[0])


class TestBlockedTrajectoriesUnderThreads:
    # at n = 40000 every path is a block of its own and runs through several blocks of running_estimates
    LONG = ["-m", "dwlab", "verify", "--theta", "0.5", "--rho", "0.3", "--n", "40000", "--reps", "4", "--seed", "5"]

    def test_qsl_reports_are_thread_count_invariant(self, tmp_path):
        one = _runs_agree_across_workers(tmp_path, *self.LONG, "--experiment", "qsl", "--which", "dw")
        assert len(one["report"]["qsl"]["values"]) == 4

    def test_lil_reports_are_thread_count_invariant(self, tmp_path):
        one = _runs_agree_across_workers(
            tmp_path, *self.LONG, "--experiment", "lil", "--which", "rho", "--checkpoints", "100,5000,40000"
        )
        assert len(one["report"]["lil"]["deviations"]) == 4


class TestReplicateBlocksUnderThreads:
    # n = 5000 puts 13 replicates in a block, so 40 replicates make four blocks for the workers
    BLOCKED = ["-m", "dwlab", "verify", "--theta", "0.5", "--rho", "0.3", "--n", "5000", "--reps", "40", "--seed", "8"]

    @pytest.mark.parametrize(
        "extra",
        [
            ["--experiment", "power", "--test-kind", "rho0", "--rho0", "0.0", "--noise", "rademacher"],
            ["--experiment", "size", "--test-kind", "zero", "--rho", "0.0"],
            ["--experiment", "critical", "--theta", "0.4", "--rho", "-0.4"],
        ],
        ids=["power_rho0_rademacher", "size_zero", "critical"],
    )
    def test_reports_are_thread_count_invariant(self, tmp_path, extra):
        one = _runs_agree_across_workers(tmp_path, *self.BLOCKED, *extra)
        assert len(one["report"]["test_statistics"]) == 40

    def test_clt_reports_are_thread_count_invariant(self, tmp_path):
        one = _runs_agree_across_workers(tmp_path, *self.BLOCKED, "--experiment", "clt")
        assert len(one["report"]["estimates"]["dw"]) == 40

    @pytest.mark.parametrize(
        "args, message",
        [
            # one block; replicate 1 is the first degenerate one
            (["--theta", "0.02", "--n", "100", "--reps", "200", "--seed", "1"], "-0.0192687"),
            # blocks of 32; replicate 61, in the second block, is the first degenerate one
            (["--theta", "0.25", "--n", "2000", "--reps", "100", "--seed", "4"], "-0.0159358"),
        ],
        ids=["first_block", "pool_block"],
    )
    def test_degenerate_replicate_stops_the_run_alike(self, args, message):
        for threads in "12":
            proc = run_fresh("-m", "dwlab", "verify", "--experiment", "critical", "--rho", "0", *args, "--threads", threads)
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr == (
                f"error: theta^2 plug-in {message} outside (0, 1); statistic leaves the chi-square regime\n"
            )


def _minor_faults(*args: str) -> int:
    """Minor page faults of one ``python *args`` child, from RUSAGE_CHILDREN around its run."""
    import resource  # POSIX only, like the test that calls this

    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = run_fresh(*args)
    assert proc.returncode == 0, proc.stderr
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before


def _without_timestamp(stdout: str) -> str:
    data = json.loads(stdout)
    data["manifest"].pop("timestamp")
    return json.dumps(data)


class TestWarmBlockMemory:
    """verify pins glibc's malloc thresholds, so a worker reuses its heap from block to block."""

    VERIFY = ["verify", "--experiment", "clt", "--theta", "0.5", "--rho", "0.3", "--n", "500", "--reps", "300",
              "--seed", "2", "--threads", "2"]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
    def test_faults_per_replicate_stay_small(self):
        # with glibc's dynamic thresholds each 1.6 MB block page-faulted back in: about 1500 faults per replicate
        args = ["-m", "dwlab", "verify", "--experiment", "qsl", "--theta", "0.5", "--rho", "0.3", "--n", "200000",
                "--threads", "2", "--seed", "1", "--reps"]
        many, one = _minor_faults(*args, "40"), _minor_faults(*args, "1")
        assert (many - one) / 39 < 300, (many, one)

    def test_importing_the_cli_does_not_import_ctypes(self):
        # numpy imports ctypes itself if it can, so block it: no command but verify may need it
        script = (
            "import sys\n"
            "sys.modules['ctypes'] = None\n"
            "import dwlab.cli\n"
            "assert dwlab.cli.main(['limits', '--theta', '0.5', '--rho', '0.3']) == 0\n"
        )
        proc = run_fresh("-c", script)
        assert proc.returncode == 0, proc.stderr

    def test_thresholds_are_set_once_per_verify(self, capsys, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        assert run_cli(capsys, *self.VERIFY)[0] == 0
        assert calls == [(-3, 32 << 20), (-1, 128 << 20)]
        assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int) and mallopt.restype is ctypes.c_int
        assert run_cli(capsys, "limits", "--theta", "0.5", "--rho", "0.3")[0] == 0
        assert len(calls) == 2

    def test_a_libc_without_mallopt_changes_nothing(self, capsys, monkeypatch):
        def no_library(name):
            raise OSError("no C library")

        code, expected, _ = run_cli(capsys, *self.VERIFY)
        assert code == 0
        for cdll in (no_library, lambda name: SimpleNamespace()):
            monkeypatch.setattr(ctypes, "CDLL", cdll)
            code, out, err = run_cli(capsys, *self.VERIFY)
            assert code == 0 and err == ""
            assert _without_timestamp(out) == _without_timestamp(expected)

    def test_no_library_is_opened_off_posix(self, capsys, monkeypatch):
        # Windows' CDLL takes no None; the C library there has no mallopt anyway
        def no_call(name):
            raise AssertionError("CDLL called")

        expected = run_cli(capsys, *self.VERIFY)[1]
        monkeypatch.setattr(ctypes, "CDLL", no_call)
        with monkeypatch.context() as patched:
            patched.setattr(os, "name", "nt")
            code, out, err = run_cli(capsys, *self.VERIFY)
        assert code == 0 and err == ""
        assert _without_timestamp(out) == _without_timestamp(expected)


def _reference_jsonable(obj):
    # the recursive converter _emit used before its json.dumps default hook
    if isinstance(obj, dict):
        return {k: _reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _reference_jsonable(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


class TestEmit:
    def test_numpy_values_print_as_before(self, capsys):
        payload = {
            "int": np.int64(-7),
            "flag": np.bool_(True),
            "float": np.float64(0.1),
            "single": np.float32(0.1),
            "array": np.array([1.5, -2e-300, 3.0]),
            "matrix": np.arange(4).reshape(2, 2),
            "nested": [{"n": np.int32(2), "off": np.bool_(False)}, (np.float64(1e300), 4, None)],
        }
        _emit(payload)
        expected = json.dumps(_reference_jsonable(payload), indent=2, allow_nan=False) + "\n"
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("bad", [np.float64("nan"), float("inf"), np.array([1.0, -np.inf])])
    def test_non_finite_is_a_domain_error(self, capsys, bad):
        with pytest.raises(DomainError, match="not finite"):
            _emit({"value": bad})
        assert capsys.readouterr().out == ""


class TestReadCsvClosesFile:
    def test_rejected_inputs_leave_no_open_file(self, tmp_path):
        rejected = {
            "empty": "",
            "no_x_column": "a,b\n1,2\n3,4\n",
            "no_header": "1,2\n3,4\n",
            "non_numeric": "x\n1.0\nabc\n2\n",
            "non_finite": "1.0\n2\nnan\n3\n",
        }
        paths = []
        for name, text in rejected.items():
            path = tmp_path / f"{name}.csv"
            path.write_text(text)
            paths.append(str(path))
        script = (
            "import gc, sys\n"
            "from dwlab.errors import DWLabError\n"
            "from dwlab.model import read_csv\n"
            "for path in sys.argv[1:]:\n"
            "    try:\n"
            "        read_csv(path)\n"
            "    except DWLabError:\n"
            "        continue\n"
            "    raise SystemExit(f'accepted {path}')\n"
            "gc.collect()\n"
        )
        # -X dev reports every file object that is collected unclosed as a ResourceWarning
        proc = run_fresh("-X", "dev", "-W", "error::ResourceWarning", "-c", script, *paths)
        assert proc.returncode == 0, proc.stderr
        assert "ResourceWarning" not in proc.stderr


MANIFEST_KEYS = ["command_line", "seed", "rng_algorithm", "artifact_version", "timestamp"]
_VERIFY = ["--theta", "0.4", "--rho", "-0.3", "--n", "300", "--reps", "2", "--seed", "3"]
# every command that prints JSON; {general} and {critical} name series on which auto takes each branch
JSON_COMMANDS = {
    "estimate": ["estimate", "--input", "{general}", "--trajectories", "{tmp}/traj.csv"],
    "test-critical": ["test", "--input", "{general}", "--kind", "critical", "--alpha", "0.05"],
    "test-zero": ["test", "--input", "{general}", "--kind", "zero", "--alpha", "0.05"],
    "test-rho0": ["test", "--input", "{general}", "--kind", "rho0", "--rho0", "0.3", "--alpha", "0.05"],
    "test-auto-general": ["test", "--input", "{general}", "--kind", "auto", "--rho0", "0.3", "--alpha", "0.05"],
    "test-auto-critical": ["test", "--input", "{critical}", "--kind", "auto", "--rho0", "-0.4", "--alpha", "0.05"],
    "recover": ["recover", "--input", "{general}", "--convention", "theta-greater"],
    "limits": ["limits", "--theta", "0.5", "--rho", "0.3"],
    "verify-clt": ["verify", "--experiment", "clt", *_VERIFY, "--csv", "{tmp}/rows.csv"],
    "verify-joint": ["verify", "--experiment", "joint", *_VERIFY],
    "verify-size": ["verify", "--experiment", "size", *_VERIFY],
    "verify-power": ["verify", "--experiment", "power", "--test-kind", "rho0", "--rho0", "0.1", *_VERIFY],
    "verify-critical": ["verify", "--experiment", "critical", *_VERIFY],
    "verify-qsl": ["verify", "--experiment", "qsl", *_VERIFY, "--n", "10000"],
    "verify-lil": ["verify", "--experiment", "lil", *_VERIFY, "--checkpoints", "100,300"],
}
AUTO_BRANCH = {"test-auto-general": "general", "test-auto-critical": "critical"}


class TestOneWrapper:
    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("series")
        for name, theta, rho in (("general", 0.5, 0.3), ("critical", 0.4, -0.4)):
            write_csv(simulate(ModelParams(theta=theta, rho=rho), NoiseSpec(), 3000, 5), tmp / f"{name}.csv")
        return {"general": str(tmp / "general.csv"), "critical": str(tmp / "critical.csv"), "tmp": str(tmp)}

    @staticmethod
    def _argv(name, paths):
        return [arg.format(**paths) for arg in JSON_COMMANDS[name]]

    @pytest.mark.parametrize("name", JSON_COMMANDS)
    def test_main_prints_one_object_led_by_the_manifest(self, capsys, paths, name):
        argv = self._argv(name, paths)
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        data = json.loads(out)  # one object: a second one would be extra data
        assert next(iter(data)) == "manifest"
        assert list(data["manifest"]) == MANIFEST_KEYS
        assert data["manifest"]["seed"] == (3 if argv[0] == "verify" else None)
        if name in AUTO_BRANCH:
            assert data["branch"] == AUTO_BRANCH[name]

    @pytest.mark.parametrize("name", JSON_COMMANDS)
    def test_commands_return_their_payload_and_print_no_json(self, capsys, paths, name):
        argv = self._argv(name, paths)
        args = build_parser().parse_args(argv)
        payload = args.func(args)
        assert capsys.readouterr().out == ""
        _, out, _ = run_cli(capsys, *argv)
        printed = json.loads(out)
        assert list(printed) == ["manifest", *payload]
        assert json.loads(json.dumps(payload, default=_json_default)) == strip_manifest(out)

    def test_simulate_returns_nothing(self, capsys, tmp_path):
        dest = tmp_path / "s.csv"
        args = build_parser().parse_args(
            ["simulate", "--theta", "0.5", "--rho", "0.3", "--n", "50", "--seed", "1", "--output", str(dest)]
        )
        assert args.func(args) is None
        assert capsys.readouterr().out == ""
        assert read_csv(dest).x.size == 51


def wrapper_calls(source: str) -> dict:
    """For ``_emit`` and ``_manifest``, the top-level definition around each call, in source order.

    A call at module level counts as None.
    """
    calls = {"_emit": [], "_manifest": []}
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in calls:
                    calls[name].append(owner)
    return calls


def commands_taking_argv(source: str) -> list:
    """Names of the ``_cmd_*`` functions with a parameter called ``argv``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_"):
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if any(a.arg == "argv" for a in params):
                found.append(node.name)
    return sorted(found)


class TestOneWrapperScan:
    def test_only_main_wraps_and_writes_the_json(self):
        source = Path(dwlab.cli.__file__).read_text(encoding="utf-8")
        assert wrapper_calls(source) == {"_emit": ["main"], "_manifest": ["main"]}
        assert commands_taking_argv(source) == []

    def test_a_second_wrapper_is_caught(self):
        source = (
            "def _cmd_a(args, argv):\n"
            "    cli._emit({'manifest': _manifest(argv, None)})\n"
            "def _cmd_b(args, *, argv=None):\n"
            "    return {}\n"
            "def main(argv):\n"
            "    _emit({'manifest': _manifest(argv, None)})\n"
            "    _emit({})\n"
            "_emit({})\n"
        )
        assert wrapper_calls(source) == {"_emit": ["_cmd_a", "main", "main", None], "_manifest": ["_cmd_a", "main"]}
        assert commands_taking_argv(source) == ["_cmd_a", "_cmd_b"]
