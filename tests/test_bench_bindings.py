"""The benchmark's span tracer replaces names on package modules by attribute.

``bench/spans.py`` lists them in ``BINDINGS``; a name a module stops binding
makes the traced benchmark fail with AttributeError.  This test reads the
list without importing anything else from ``bench/``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_binding_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look the module up
    spec.loader.exec_module(spans)
    missing = [
        f"{module_name}.{attr}"
        for module_name, names in spans.BINDINGS
        for attr in names
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert not missing, missing
