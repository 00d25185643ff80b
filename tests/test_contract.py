"""The command-line contract over short series of every magnitude.

A command that reads a series either exits 0 with standard JSON on stdout
(no NaN or Infinity) or exits 2 with one ``error:`` line on stderr that
names what went wrong, never the JSON writer's generic backstop.  The
series hold 4 to 8 values of magnitude 10^k, k from -160 to 160, so their
sums of squares and the quantities derived from them reach both ends of
the float64 range.  Every command runs in-process through ``cli.main``.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dwlab.cli import main

# estimate with and without trajectories, the four test kinds, recover
COMMANDS = [
    ["estimate"],
    ["estimate", "--trajectories", "trajectories.csv", "--k0", "3"],
    ["test", "--kind", "zero", "--alpha", "0.05"],
    ["test", "--kind", "critical", "--alpha", "0.05"],
    ["test", "--kind", "rho0", "--rho0", "0.3", "--alpha", "0.05"],
    ["test", "--kind", "auto", "--rho0", "0.3", "--alpha", "0.05"],
    ["recover"],
]

value = st.builds(
    lambda sign, mantissa, k: sign * mantissa * 10.0**k,
    st.sampled_from((-1.0, 1.0)),
    st.floats(min_value=1.0, max_value=10.0, exclude_max=True),
    st.integers(min_value=-160, max_value=160),
)


def _reject_constant(name):
    raise ValueError(f"stdout holds {name}")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
@given(series=st.lists(value, min_size=4, max_size=8))
# the product in recover_sigma2 overflows to -inf
@example(series=[-9.25949927465428e152, 1.730078858798992e153, 4.1851270553128257e152, 6.662739841674448e153])
# theta_hat is about 2.4e158, so s * s in quadratic_roots overflows and rho_rec would be inf
@example(series=[4.186731303767951e-147, -1.065392118632532e-128, -1.3507838914652754e-29, -3.184505127011593e129])
@settings(derandomize=True, max_examples=100, deadline=None)
def test_a_command_writes_json_or_one_error_line(workdir, command, series):
    source = workdir / "series.csv"
    source.write_text("".join(f"{x!r}\n" for x in series))
    argv = [command[0], "--input", str(source), *(str(workdir / a) if a.endswith(".csv") else a for a in command[1:])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (code, err.getvalue())
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == ""
        message = err.getvalue()
        assert message.startswith("error: ") and message.count("\n") == 1 and message.endswith("\n"), message
        assert "refusing to write invalid JSON" not in message, message
