"""Every name that a module under ``src/dwlab`` imports is used in that module.

Two kinds of import need no use: the names ``dwlab/__init__.py`` re-exports
through ``__all__``, and the names that the benchmark's span tracer wraps on
a module (``BINDINGS`` in ``bench/spans.py``), which it replaces by attribute.

No module imports the ``scipy.signal`` package, which takes over a second to
import; ``dwlab.model`` loads the one compiled filter it needs by file path.
No module imports ``sysconfig`` either: a thread that reads its config cache
while another fills it gets None, so a first simulation from several threads
at once could fail.  Only ``dwlab.montecarlo`` imports ``ctypes``, inside the
one function that looks a C library function up: ``mallopt`` for the
allocator setup of ``verify``, ``prctl`` for its forked workers.  No module
imports ``multiprocessing`` or ``concurrent.futures``: the Monte Carlo
workers are forked children with one pipe each, not a process pool.

Every module-level function and class under ``src/dwlab`` is used there
outside its own body, or re-exported through ``__all__``, or listed in
``UNCALLED`` with the reason it stays.
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
    "dwlab.montecarlo.dw_statistic",
    "dwlab.montecarlo.estimate_rho",
    "dwlab.montecarlo.estimate_theta",
    "dwlab.montecarlo.residuals",
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

# Defined under src/dwlab and used by no code there
UNCALLED = {
    "dwlab.dist.chi2_cdf1": "the span tracer wraps it on dwlab.testing",
    "dwlab.estimators.dw_statistic": "a test oracle of fit; the span tracer wraps it",
    "dwlab.estimators.estimate_rho": "a test oracle of fit; the span tracer wraps it",
    "dwlab.estimators.estimate_sigma2": "a test oracle of fit",
    "dwlab.estimators.estimate_theta": "a test oracle of fit; the span tracer wraps it",
    "dwlab.estimators.estimate_theta_sq": "a test oracle of fit; the span tracer wraps it",
}


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


def uncalled_definitions(sources: dict) -> list:
    """The module-level functions and classes of ``sources`` (module name to source) that no code reads.

    A read is a name, or an attribute of a module of ``sources`` (``limits.asymptotics``), anywhere but in
    the body of the definition itself, so a function that only calls itself counts as uncalled.
    """
    modules = {module.rpartition(".")[2] for module in sources}
    defined, read = {}, set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            if own:
                defined[f"{module}.{own}"] = own
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id in modules:
                    read.add(sub.attr)
                elif isinstance(sub, ast.Name) and sub.id != own:
                    read.add(sub.id)
    return sorted(qualified for qualified, name in defined.items() if name not in read)


def test_every_definition_is_used_exported_or_listed():
    exported = {f"{getattr(dwlab, name).__module__}.{name}" for name in dwlab.__all__ if callable(getattr(dwlab, name))}
    assert sorted(set(uncalled_definitions(_sources())) - exported) == sorted(UNCALLED)


def test_a_dead_definition_is_caught():
    sources = {
        "dwlab.a": "def _leaves(n):\n    yield from _leaves(n - 1)\n\ndef used():\n    return 1\n\nclass Kept:\n    pass\n",
        "dwlab.b": "from . import a\nfrom .a import Kept\n\na.used()\nKept\n",
    }
    assert uncalled_definitions(sources) == ["dwlab.a._leaves"]


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


def test_only_the_libc_lookup_imports_ctypes():
    # verify's allocator setup and its workers' parent-death signal are the users; numpy loads ctypes for itself
    _imported_only_inside("dwlab.montecarlo", "_libc_function", "ctypes")


def test_no_module_imports_a_process_pool():
    for package in ("concurrent.futures", "multiprocessing"):
        found = _importers(package)
        assert not found, (package, found)


def test_a_process_pool_import_is_caught():
    source = (
        "import multiprocessing.pool\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "def f():\n"
        "    import concurrent.futures\n"
    )
    assert imports_of(source, "concurrent.futures") == [2, 4]
    assert imports_of(source, "multiprocessing") == [1]


def test_no_command_loads_a_process_pool():
    # 13 replicates to a block at n = 5000, so the parallel verify forks two workers for its three blocks
    script = (
        "import sys, dwlab.cli\n"
        "loaded = lambda: sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules)\n"
        "assert not loaded(), ('loaded by import', loaded())\n"
        "assert dwlab.cli.main(['limits', '--theta', '0.5', '--rho', '0.3']) == 0\n"
        "assert not loaded(), ('loaded by limits', loaded())\n"
        "assert dwlab.cli.main(['verify', '--experiment', 'clt', '--theta', '0.5', '--rho', '0.3', '--n', '5000',"
        " '--reps', '30', '--seed', '1', '--threads', '2']) == 0\n"
        "assert not loaded(), ('loaded by a parallel verify', loaded())\n"
    )
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
