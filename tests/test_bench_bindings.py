"""The benchmark's span tracer replaces names on package modules by attribute.

``bench/spans.py`` lists them in ``BINDINGS``; a name a module stops binding
makes the traced benchmark fail with AttributeError, and a name it binds
but no longer calls leaves the wrapper without spans.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path


def test_every_traced_binding_resolves(bench_spans):
    missing = [
        f"{module_name}.{attr}"
        for module_name, names in bench_spans.BINDINGS
        for attr in names
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert not missing, missing


def test_wrappers_set_before_and_after_the_first_command_are_called(tmp_path):
    # dwlab.cli binds the library names when a command first needs them, and must keep a wrapper set before that
    series = tmp_path / "s.csv"
    series.write_text("\n".join(["0.3", "-0.1", "0.8", "0.4", "-0.6", "0.2", "0.9"]) + "\n")
    script = (
        "import sys, dwlab.cli\n"
        "from dwlab import estimators, model\n"
        "calls = []\n"
        "def wrapped(func):\n"
        "    def wrapper(*args, **kwargs):\n"
        "        calls.append(func.__name__)\n"
        "        return func(*args, **kwargs)\n"
        "    return wrapper\n"
        "for when in ('before the first command', 'after it'):\n"
        "    dwlab.cli.read_csv = wrapped(model.read_csv)\n"
        "    dwlab.cli.estimate_all = wrapped(estimators.estimate_all)\n"
        "    calls.clear()\n"
        "    assert dwlab.cli.main(['estimate', '--input', sys.argv[1]]) == 0\n"
        "    assert calls == ['read_csv', 'estimate_all'], (when, calls)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(series)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
