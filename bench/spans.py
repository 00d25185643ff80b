"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of the package at the points where the
calling modules bind them, so nothing under ``src/`` changes.  Every call
through a wrapper records one span: name, start, end, parent and thread.
Spans stay in memory until the run ends; :func:`self_times` and
:func:`layer_metrics` turn them into per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

# (module whose binding is replaced, attribute names).  The callers are the
# modules that call across layers: cli, montecarlo and testing; cli reaches
# the limits layer through the module object, so the function is wrapped on
# dwlab.limits itself.
BINDINGS = (
    (
        "dwlab.cli",
        (
            "simulate", "write_csv", "read_csv", "estimate_all", "running_estimates",
            "auto_test", "critical_case_test", "rho_test", "rho_zero_test",
            "recover_params", "recover_sigma2", "run_replications",
            "empirical_size_power", "qsl_check", "lil_envelope_check",
        ),
    ),
    ("dwlab.limits", ("asymptotics",)),
    (
        "dwlab.montecarlo",
        (
            "simulate", "estimate_all", "estimate_theta", "estimate_rho", "residuals",
            "dw_statistic", "running_estimates", "ks_statistic",
            "critical_case_test", "rho_test", "rho_zero_test",
        ),
    ),
    (
        "dwlab.testing",
        (
            "chi2_cdf1", "chi2_quantile1", "estimate_theta", "estimate_theta_sq",
            "residuals", "estimate_rho", "dw_statistic", "critical_case_test", "rho_test",
        ),
    ),
)

LAYERS = ("cli", "model", "estimators", "testing", "recovery", "limits", "dist", "montecarlo")

TEST_FUNCS = ("auto_test", "rho_test", "rho_zero_test", "critical_case_test")
THETA_FITS = ("estimators.estimate_theta", "estimators.estimate_theta_sq")
REFITS = ("estimators.estimate_theta", "estimators.residuals", "estimators.estimate_rho", "estimators.dw_statistic")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def span_name(func) -> str:
    """'<layer>.<qualname>' for a function defined in dwlab.<layer>."""
    return f"{func.__module__.rsplit('.', 1)[-1]}.{func.__qualname__}"


class Tracer:
    """Records spans; a thread with no open span parents to the owner thread's innermost one.

    ThreadPoolExecutor workers start with an empty stack while the thread
    that submitted them waits inside a span, so that span is their parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, func, name: Optional[str] = None):
        name = name or span_name(func)
        spans, lock, clock = self.spans, self._lock, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._owner_stack[-1] if self._owner_stack else None
            span = Span(name, 0.0, 0.0, parent, threading.get_ident())
            with lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return traced


@contextmanager
def installed(tracer: Tracer):
    """Replace every binding in BINDINGS and NoiseSpec.sample; restore them on exit."""
    from dwlab.model import NoiseSpec

    saved = []
    try:
        for module_name, names in BINDINGS:
            module = importlib.import_module(module_name)
            for attr in names:
                func = getattr(module, attr)
                saved.append((module, attr, func))
                setattr(module, attr, tracer.wrap(func))
        sample = NoiseSpec.sample
        saved.append((NoiseSpec, "sample", sample))
        NoiseSpec.sample = tracer.wrap(sample, "model.noise_draw")
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children from different threads may overlap each other; their union is
    subtracted once, clipped to the parent's interval.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        inner = [(max(c.start, s.start), min(c.end, s.end)) for c in children[i]]
        out.append((s.end - s.start) - covered(inner))
    return out


def _ancestors(spans: list[Span], i: int):
    parent = spans[i].parent
    while parent is not None:
        yield spans[parent]
        parent = spans[parent].parent


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer numbers of one traced run (seconds unless the name says otherwise)."""
    own = self_times(spans)
    inclusive = defaultdict(float)
    calls = defaultdict(int)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, own):
        inclusive[s.name] += s.end - s.start
        calls[s.name] += 1
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + t
    recursion = sum(t for s, t in zip(spans, own) if s.name == "model.simulate")

    refit_calls, refit_s, fits, tests = 0, 0.0, 0, 0
    for i, s in enumerate(spans):
        parent = spans[s.parent] if s.parent is not None else None
        if s.name in REFITS and parent is not None and parent.name == "montecarlo.lil_envelope_check":
            refit_calls += 1
            refit_s += s.end - s.start
        is_test = s.layer == "testing" and s.name.split(".", 1)[1] in TEST_FUNCS
        if is_test and (parent is None or parent.layer != "testing"):
            tests += 1
        if s.name in THETA_FITS and any(a.layer == "testing" for a in _ancestors(spans, i)):
            fits += 1

    out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    out.update(
        {
            "model.write_csv_s": inclusive["model.write_csv"],
            "model.read_csv_s": inclusive["model.read_csv"],
            "model.simulate_s": inclusive["model.simulate"],
            "model.simulate_calls": calls["model.simulate"],
            "model.noise_draw_s": inclusive["model.noise_draw"],
            "model.recursion_s": recursion,
            "estimators.estimate_all_s": inclusive["estimators.estimate_all"],
            "estimators.estimate_all_calls": calls["estimators.estimate_all"],
            "estimators.running_estimates_s": inclusive["estimators.running_estimates"],
            "montecarlo.lil_refit_calls": refit_calls,
            "montecarlo.lil_refit_s": refit_s,
            "testing.auto_test_s": inclusive["testing.auto_test"],
            "testing.rho_test_s": inclusive["testing.rho_test"],
            "testing.theta_fits_per_test": fits / tests if tests else 0.0,
            "dist.chi2_quantile1_s": inclusive["dist.chi2_quantile1"],
            "dist.chi2_quantile1_calls": calls["dist.chi2_quantile1"],
            "dist.ks_statistic_s": inclusive["dist.ks_statistic"],
            "recovery.recover_params_s": inclusive["recovery.recover_params"],
            "limits.asymptotics_s": inclusive["limits.asymptotics"],
            "trace.spans": len(spans),
        }
    )
    return out
