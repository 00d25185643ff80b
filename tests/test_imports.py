"""Every name that a module under ``src/dwlab`` imports is used in that module.

Two kinds of import need no use: the names ``dwlab/__init__.py`` re-exports
through ``__all__``, and the names that the benchmark's span tracer wraps on
a module (``BINDINGS`` in ``bench/spans.py``), which it replaces by attribute.

No module imports the ``scipy.signal`` package, which takes over a second to
import; ``dwlab.model`` loads the one compiled filter it needs by file path.
No module imports ``sysconfig`` either: a thread that reads its config cache
while another fills it gets None, so a first simulation from several threads
at once could fail.  Only ``dwlab.cli`` imports ``ctypes``, inside the
function that sets the allocator up for ``verify``.  Only ``dwlab.montecarlo``
imports ``concurrent.futures`` and ``multiprocessing``, inside the function
that forks the Monte Carlo workers, so no other command pays for them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import dwlab

PACKAGE = Path(dwlab.__file__).resolve().parent

# Imported by a module that never calls them, so that the span tracer can wrap
# them there; binding the spans where the names are used would let them go.
TRACER_ONLY = [
    "dwlab.montecarlo.critical_case_test",
    "dwlab.montecarlo.rho_test",
    "dwlab.montecarlo.rho_zero_test",
    "dwlab.montecarlo.running_estimates",
    "dwlab.montecarlo.simulate",
    "dwlab.testing.chi2_cdf1",
    "dwlab.testing.dw_statistic",
    "dwlab.testing.estimate_rho",
    "dwlab.testing.estimate_theta",
    "dwlab.testing.estimate_theta_sq",
    "dwlab.testing.residuals",
]


def unused_imports(source: str) -> list:
    """Names bound by an import statement anywhere in the source and never read as a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def imports_of(source: str, package: str) -> list:
    """Line numbers of the import statements that load ``package`` or a module under it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(m == package or m.startswith(package + ".") for m in modules):
            lines.append(node.lineno)
    return sorted(lines)


def _sources() -> dict:
    return {
        "dwlab" if path.stem == "__init__" else f"dwlab.{path.stem}": path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _unused_by_module() -> dict:
    return {module: unused_imports(source) for module, source in _sources().items()}


def test_every_import_is_used(bench_spans):
    wrapped = {f"{module}.{name}" for module, names in bench_spans.BINDINGS for name in names}
    exported = {f"dwlab.{name}" for name in dwlab.__all__}
    unused = [
        f"{module}.{name}"
        for module, names in _unused_by_module().items()
        for name in names
        if f"{module}.{name}" not in wrapped | exported
    ]
    assert not unused, unused


def test_tracer_only_imports_are_listed(bench_spans):
    wrapped = {f"{module}.{name}" for module, names in bench_spans.BINDINGS for name in names}
    found = [f"{module}.{name}" for module, names in _unused_by_module().items() for name in names]
    assert sorted(set(found) & wrapped) == TRACER_ONLY


def test_a_leftover_import_is_caught():
    source = "from contextlib import nullcontext\nimport os.path\nimport numpy as np\n\nnp.zeros(os.sep)\n"
    assert unused_imports(source) == ["nullcontext"]


def _importers(package: str) -> dict:
    return {module: lines for module, source in _sources().items() if (lines := imports_of(source, package))}


def test_no_module_imports_scipy_signal():
    found = _importers("scipy.signal")
    assert not found, found


def test_no_module_imports_sysconfig():
    found = _importers("sysconfig")
    assert not found, found


def test_a_sysconfig_import_is_caught():
    source = (
        "import sys\n"
        "import sysconfig\n"
        "from sysconfig import get_config_var\n"
        "import sysconfigure\n"
        "def f():\n"
        "    import sysconfig as sc\n"
    )
    assert imports_of(source, "sysconfig") == [2, 3, 6]


def test_a_scipy_signal_import_is_caught():
    source = (
        "import scipy\n"
        "import scipy.signal\n"
        "from scipy.signal import lfilter\n"
        "from scipy import signal\n"
        "import scipy.signal._sigtools as st\n"
        "from scipy.special import erfc\n"
        "def f():\n"
        "    from scipy.signal._signaltools import lfilter\n"
    )
    assert imports_of(source, "scipy.signal") == [2, 3, 4, 5, 8]


def _imported_only_inside(module: str, function: str, package: str) -> None:
    found = _importers(package)
    assert list(found) == [module], found
    tree = ast.parse(_sources()[module])
    top_level = [node.lineno for node in tree.body if node.lineno in found[module]]
    assert not top_level, top_level
    (owner,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function]
    outside = [line for line in found[module] if not owner.lineno <= line <= owner.end_lineno]
    assert not outside, (outside, function)


def test_only_the_cli_imports_ctypes_and_only_inside_a_function():
    # the allocator setup of `verify` is the one user; numpy loads ctypes for itself
    _imported_only_inside("dwlab.cli", "_keep_freed_memory", "ctypes")


def test_worker_processes_are_imported_only_where_they_are_forked():
    for package in ("concurrent.futures", "multiprocessing"):
        _imported_only_inside("dwlab.montecarlo", "_forked_map", package)


def test_no_command_but_a_parallel_verify_loads_worker_processes():
    script = (
        "import sys, dwlab.cli\n"
        "loaded = lambda: sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules)\n"
        "assert not loaded(), ('loaded by import', loaded())\n"
        "assert dwlab.cli.main(['limits', '--theta', '0.5', '--rho', '0.3']) == 0\n"
        "assert not loaded(), ('loaded by limits', loaded())\n"
    )
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
