import importlib.util
import sys
import tracemalloc
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture
def bench_spans(monkeypatch):
    """``bench/spans.py`` loaded on its own, without importing anything else from ``bench/``."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look the module up
    spec.loader.exec_module(spans)
    return spans


def traced_peak(run):
    """The most memory ``run()`` holds at once beyond what was held before it, as tracemalloc counts it, and its result."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = run()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()
