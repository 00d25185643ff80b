"""Each fitted statistic and each degeneracy message is written out once under ``src/dwlab``.

The four DegenerateDenominator messages are constants of
``dwlab.estimators``, shared by the one-statistic functions and the fit
kernel ``fit``, of which ``estimate_all`` is all five statistics.
The names and order of the five fitted statistics are
``estimators.ESTIMATES``: the names the kernel takes, the float fields of
``EstimateSet``, the ``estimate`` JSON keys before ``n`` and the clt
``--csv`` columns after ``replicate`` all follow it.
"""

import ast
import dataclasses
import json
from collections import Counter
from pathlib import Path

import dwlab
from dwlab.cli import main
from dwlab.estimators import (
    DW_DEGENERATE,
    ESTIMATES,
    RHO_DEGENERATE,
    THETA_DEGENERATE,
    THETA_SQ_DEGENERATE,
    EstimateSet,
)
from dwlab.model import ModelParams, NoiseSpec, simulate, write_csv

PACKAGE = Path(dwlab.__file__).resolve().parent

MESSAGES = (THETA_DEGENERATE, RHO_DEGENERATE, DW_DEGENERATE, THETA_SQ_DEGENERATE)


def string_literals(source: str) -> list:
    """Every string constant in the source: docstrings, and the literal parts of f-strings, too."""
    return [node.value for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Constant) and isinstance(node.value, str)]


def test_each_degeneracy_message_is_written_once():
    counts = Counter(
        literal for path in sorted(PACKAGE.glob("*.py")) for literal in string_literals(path.read_text(encoding="utf-8"))
    )
    assert {message: counts[message] for message in MESSAGES} == dict.fromkeys(MESSAGES, 1)


def test_a_second_copy_is_caught():
    source = 'M = "gone"\n\ndef f(x):\n    """Not gone."""\n    raise ValueError("gone" if x else f"{x} gone")\n'
    assert Counter(string_literals(source))["gone"] == 2


def test_estimates_are_the_float_fields_of_an_estimate_set():
    # EstimateSet's module postpones its annotations, so each field's type is its annotation's text
    assert ESTIMATES == tuple(field.name for field in dataclasses.fields(EstimateSet) if field.type == "float")


def test_an_estimate_set_holds_the_statistics_and_n_only():
    # a fit keeps no residual series; estimate --residuals forms it through residuals() when asked
    assert [field.name for field in dataclasses.fields(EstimateSet)] == [*ESTIMATES, "n"]


def test_estimates_name_the_estimate_json_and_the_clt_csv_columns(capsys, tmp_path):
    series, rows = tmp_path / "s.csv", tmp_path / "rows.csv"
    write_csv(simulate(ModelParams(0.5, 0.3), NoiseSpec(), 200, 1), series)
    assert main(["estimate", "--input", str(series)]) == 0
    assert list(json.loads(capsys.readouterr().out)["estimates"]) == [*ESTIMATES, "n"]
    argv = ["verify", "--experiment", "clt", "--theta", "0.5", "--rho", "0.3", "--n", "200", "--reps", "3"]
    assert main([*argv, "--seed", "1", "--threads", "1", "--csv", str(rows)]) == 0
    assert rows.read_text().splitlines()[0] == ",".join(["replicate", *ESTIMATES])
