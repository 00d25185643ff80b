"""Self-time arithmetic and the tracer of the benchmark.

Run from the root of a checkout:  python3 -m pytest bench/tests -q
"""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import spans  # noqa: E402
from spans import Span  # noqa: E402


def test_covered_merges_overlaps_and_skips_empty():
    assert spans.covered([]) == 0.0
    assert spans.covered([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert spans.covered([(0.0, 2.0), (1.0, 3.0), (1.5, 1.8)]) == 3.0
    assert spans.covered([(5.0, 5.0), (6.0, 4.0)]) == 0.0


def test_self_times_on_a_hand_built_tree_with_two_threads():
    # root [0, 10] on thread 1; children A [1, 4] on thread 1 and B [3, 6] on
    # thread 2 overlap by 1; C [8, 11] runs past the root's end and is clipped;
    # A has its own child [2, 3].
    tree = [
        Span("cli.main", 0.0, 10.0, None, 1),
        Span("model.simulate", 1.0, 4.0, 0, 1),
        Span("model.simulate", 3.0, 6.0, 0, 2),
        Span("estimators.estimate_all", 8.0, 11.0, 0, 2),
        Span("model.noise_draw", 2.0, 3.0, 1, 1),
    ]
    assert spans.self_times(tree) == [10.0 - 5.0 - 2.0, 2.0, 3.0, 3.0, 1.0]


def test_self_times_add_up_to_the_root_when_children_do_not_overlap():
    tree = [
        Span("cli.main", 0.0, 1.0, None, 1),
        Span("montecarlo.run_replications", 0.1, 0.9, 0, 1),
        Span("model.simulate", 0.2, 0.4, 1, 1),
        Span("estimators.estimate_all", 0.5, 0.8, 1, 1),
        Span("model.noise_draw", 0.25, 0.3, 2, 1),
    ]
    assert sum(spans.self_times(tree)) == pytest.approx(1.0, abs=1e-15)


def test_layer_metrics_count_theta_fits_and_lil_refits():
    tree = [
        Span("cli.main", 0.0, 10.0, None, 1),
        Span("testing.auto_test", 1.0, 5.0, 0, 1),
        Span("testing.critical_case_test", 1.0, 2.0, 1, 1),
        Span("estimators.estimate_theta_sq", 1.1, 1.2, 2, 1),
        Span("estimators.estimate_theta", 1.3, 1.4, 2, 1),
        Span("testing.rho_test", 2.0, 4.0, 1, 1),
        Span("estimators.estimate_theta", 2.1, 2.2, 5, 1),
        Span("dist.chi2_quantile1", 3.0, 3.5, 5, 1),
        Span("montecarlo.lil_envelope_check", 6.0, 9.0, 0, 1),
        Span("model.simulate", 6.0, 7.0, 8, 1),
        Span("estimators.estimate_theta", 7.0, 7.5, 8, 1),
        Span("estimators.residuals", 7.5, 8.0, 8, 1),
    ]
    m = spans.layer_metrics(tree)
    assert m["testing.theta_fits_per_test"] == 3.0
    assert m["montecarlo.lil_refit_calls"] == 2
    assert m["montecarlo.lil_refit_s"] == 1.0
    assert m["testing.auto_test_s"] == 4.0 and m["testing.rho_test_s"] == 2.0
    assert m["dist.chi2_quantile1_calls"] == 1
    assert m["model.recursion_s"] == 1.0
    total = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert total == pytest.approx(10.0)


def test_worker_thread_spans_parent_to_the_waiting_span():
    tracer = spans.Tracer()
    leaf = tracer.wrap(lambda: time.sleep(0.02), "model.simulate")

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: leaf(), range(4)))

    tracer.wrap(fan_out, "montecarlo.run_replications")()
    outer, *leaves = tracer.spans
    assert outer.parent is None
    assert all(s.parent == 0 for s in leaves)
    assert len({s.thread for s in leaves} - {threading.get_ident()}) >= 1
    own = spans.self_times(tracer.spans)
    union = spans.covered([(s.start, s.end) for s in leaves])
    assert own[0] == pytest.approx(outer.end - outer.start - union)
    assert sum(own) > outer.end - outer.start  # overlapping leaves: parallel time exceeds the wall


def test_installed_wraps_and_restores_the_bindings():
    import dwlab.cli
    import dwlab.testing
    from dwlab.model import NoiseSpec

    original = (dwlab.cli.simulate, dwlab.testing.estimate_theta, NoiseSpec.sample)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert dwlab.cli.simulate is not original[0]
        assert dwlab.cli.main(["limits", "--theta", "0.5", "--rho", "0.3"]) == 0
    assert (dwlab.cli.simulate, dwlab.testing.estimate_theta, NoiseSpec.sample) == original
    assert [s.name for s in tracer.spans] == ["limits.asymptotics"]
