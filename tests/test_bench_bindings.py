"""The benchmark's span tracer replaces names on package modules by attribute.

``bench/spans.py`` lists them in ``BINDINGS``; a name a module stops binding
makes the traced benchmark fail with AttributeError.
"""

import importlib


def test_every_traced_binding_resolves(bench_spans):
    missing = [
        f"{module_name}.{attr}"
        for module_name, names in bench_spans.BINDINGS
        for attr in names
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert not missing, missing
