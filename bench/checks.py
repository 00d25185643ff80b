"""Output checks of the benchmark.

Each function returns a list of problems (empty when the output is right).
A problem is counted against the command whose output it concerns; it never
aborts the run.  The functions take the reference values as arguments, so
they can be tested without running the program.
"""

from __future__ import annotations

import json
import math

import numpy as np


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def strict_json(text: str):
    """Parse JSON, refusing NaN and +-Infinity.  Returns (payload, problems)."""
    try:
        return json.loads(text, parse_constant=_reject_constant), []
    except ValueError as exc:
        return None, [f"invalid JSON: {exc}"]


def exit_code(rc: int) -> list:
    return [] if rc == 0 else [f"exit code {rc}"]


def same_bits(got: np.ndarray, want: np.ndarray, what: str) -> list:
    got = np.ascontiguousarray(got, dtype=np.float64)
    want = np.ascontiguousarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape} != {want.shape}"]
    if got.tobytes() != want.tobytes():
        bad = int(np.count_nonzero(got.view(np.uint64) != want.view(np.uint64)))
        return [f"{what}: {bad} values differ in their bits"]
    return []


ESTIMATE_KEYS = ("theta_hat", "rho_hat", "dw", "sigma2_hat")


def estimates_match(payload: dict, est) -> list:
    """The estimate command's numbers equal the in-process estimate_all exactly."""
    got = payload.get("estimates", {})
    return [
        f"estimates.{key}: {got.get(key)!r} != {getattr(est, key)!r}"
        for key in ESTIMATE_KEYS
        if got.get(key) != getattr(est, key)
    ]


def without_manifest(payload: dict) -> str:
    return json.dumps({k: v for k, v in payload.items() if k != "manifest"})


def reports_identical(one: dict, two: dict, what: str) -> list:
    if without_manifest(one) != without_manifest(two):
        return [f"{what}: report differs between 1 and 2 threads"]
    return []


def report_tolerances(payload: dict, mc) -> list:
    """A verify report passes the library's own tolerances (``mc`` is dwlab.montecarlo)."""
    rep = payload.get("report", {})
    experiment = rep.get("experiment")
    problems = []
    if rep.get("ks") is not None:
        for name, ks in rep["ks"].items():
            if not ks["statistic"] <= mc.KS_TOLERANCE:
                problems.append(f"ks.{name} {ks['statistic']:.4f} > {mc.KS_TOLERANCE}")
        if rep.get("sample_cov") is not None:
            cov = np.array(rep["sample_cov"])
            gamma = np.array(rep["targets"]["gamma"])
            tol = np.maximum(mc.COV_REL_TOLERANCE * np.abs(gamma), mc.COV_ABS_TOLERANCE)
            if not np.all(np.abs(cov - gamma) <= tol):
                problems.append(f"sample_cov {cov.tolist()} outside tolerance of {gamma.tolist()}")
    if rep.get("rejection_rate") is not None:
        alpha, rate = rep["alpha"], rep["rejection_rate"]
        band = mc.SIZE_BAND_SIGMAS * math.sqrt(alpha * (1.0 - alpha) / rep["replicates"])
        if experiment == "size" and not abs(rate - alpha) <= band:
            problems.append(f"size {rate:.4f} outside {alpha} +- {band:.4f}")
        if experiment == "power" and not rate > alpha + band:
            problems.append(f"power {rate:.4f} inside the size band {alpha} + {band:.4f}")
    if rep.get("qsl") is not None:
        ratio = rep["qsl"]["mean"] / rep["qsl"]["target"]
        if not abs(ratio - 1.0) <= mc.QSL_REL_TOLERANCE:
            problems.append(f"qsl mean/target {ratio:.3f} outside 1 +- {mc.QSL_REL_TOLERANCE}")
    if rep.get("lil") is not None:
        frac = rep["lil"]["exceedance_fraction"]
        if not frac <= mc.LIL_MAX_FRACTION:
            problems.append(f"lil exceedance {frac:.4f} > {mc.LIL_MAX_FRACTION}")
    return problems
