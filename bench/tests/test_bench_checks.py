"""The benchmark's output checks catch wrong outputs.

Run from the root of a checkout:  python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from dwlab import montecarlo  # noqa: E402
from dwlab.cli import main as cli_main  # noqa: E402


def test_strict_json_rejects_non_finite_constants():
    for token in ("NaN", "Infinity", "-Infinity"):
        payload, problems = checks.strict_json('{"estimates": {"theta_hat": %s}}' % token)
        assert payload is None and problems
    payload, problems = checks.strict_json('{"a": 1.5}')
    assert payload == {"a": 1.5} and problems == []


def test_nonzero_exit_is_a_problem():
    assert checks.exit_code(0) == []
    assert checks.exit_code(2)


def test_perturbed_theta_hat_is_caught():
    est = SimpleNamespace(theta_hat=0.5123, rho_hat=0.2871, dw=1.3392, sigma2_hat=0.998)
    payload = json.loads(json.dumps({"estimates": vars(est)}))
    assert checks.estimates_match(payload, est) == []
    payload["estimates"]["theta_hat"] = float(np.nextafter(est.theta_hat, 1.0))
    assert checks.estimates_match(payload, est)


def test_same_bits_sees_one_ulp_and_signed_zero():
    x = np.linspace(-1.0, 1.0, 11)
    assert checks.same_bits(x.copy(), x, "x") == []
    y = x.copy()
    y[3] = np.nextafter(y[3], 2.0)
    assert checks.same_bits(y, x, "x")
    z = np.zeros(3)
    assert checks.same_bits(-z, z, "z")
    assert checks.same_bits(x[:-1], x, "x")


def test_reports_compare_without_manifest():
    one = {"manifest": {"command_line": "dwlab verify --threads 1"}, "report": {"values": [0.1, 0.2]}}
    two = {"manifest": {"command_line": "dwlab verify --threads 2"}, "report": {"values": [0.1, 0.2]}}
    assert checks.reports_identical(one, two, "qsl") == []
    two["report"]["values"][1] = 0.25
    assert checks.reports_identical(one, two, "qsl")


def _report(**fields):
    return {"report": {"alpha": 0.05, "replicates": 4000, **fields}}


def test_report_tolerances_use_the_library_limits():
    ok_ks = {"theta": {"statistic": 0.01, "n": 4000}}
    assert checks.report_tolerances(_report(experiment="clt", ks=ok_ks), montecarlo) == []
    bad_ks = {"theta": {"statistic": montecarlo.KS_TOLERANCE * 1.01, "n": 4000}}
    assert checks.report_tolerances(_report(experiment="clt", ks=bad_ks), montecarlo)

    assert checks.report_tolerances(_report(experiment="power", rejection_rate=1.0), montecarlo) == []
    assert checks.report_tolerances(_report(experiment="power", rejection_rate=0.06), montecarlo)
    assert checks.report_tolerances(_report(experiment="size", rejection_rate=0.05), montecarlo) == []
    assert checks.report_tolerances(_report(experiment="size", rejection_rate=0.09), montecarlo)

    qsl = {"mean": 0.9, "target": 1.0}
    assert checks.report_tolerances(_report(experiment="qsl", qsl=qsl), montecarlo) == []
    qsl = {"mean": 1.0 - montecarlo.QSL_REL_TOLERANCE * 1.01, "target": 1.0}
    assert checks.report_tolerances(_report(experiment="qsl", qsl=qsl), montecarlo)

    lil = {"exceedance_fraction": montecarlo.LIL_MAX_FRACTION}
    assert checks.report_tolerances(_report(experiment="lil", lil=lil), montecarlo) == []
    lil = {"exceedance_fraction": montecarlo.LIL_MAX_FRACTION + 0.01}
    assert checks.report_tolerances(_report(experiment="lil", lil=lil), montecarlo)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One in-process pass of the cli_pipeline commands."""
    cmds = run.commands("cli_pipeline", 7, tmp_path_factory.mktemp("work"))
    _, codes = run.run_inprocess(cmds, cli_main)
    assert codes == [0] * len(cmds)
    return cmds, codes


def test_pipeline_outputs_pass(pipeline):
    cmds, codes = pipeline
    assert run.check_outputs("cli_pipeline", cmds, codes) == {c.name: [] for c in cmds}


def test_pipeline_checks_catch_each_fault(pipeline):
    cmds, codes = pipeline
    by_name = {c.name: c for c in cmds}
    est_file = by_name["estimate"].out
    test_file = by_name["test"].out
    est_text, test_text = est_file.read_text(), test_file.read_text()
    try:
        payload = json.loads(est_text)
        payload["estimates"]["theta_hat"] = float(np.nextafter(payload["estimates"]["theta_hat"], 2.0))
        est_file.write_text(json.dumps(payload))
        payload = json.loads(test_text)
        payload["test"]["p_value"] = float("nan")
        test_file.write_text(json.dumps(payload))
        bad_codes = list(codes)
        bad_codes[[c.name for c in cmds].index("limits")] = 2
        problems = run.check_outputs("cli_pipeline", cmds, bad_codes)
    finally:
        est_file.write_text(est_text)
        test_file.write_text(test_text)
    failed = {name for name, items in problems.items() if items}
    assert failed == {"estimate", "test", "limits"}
    assert run.count(problems) == (5, 3)
