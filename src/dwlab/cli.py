"""Command line interface.

Subcommands: simulate, estimate, test, recover, limits, verify.  All JSON
output goes to stdout and embeds a run manifest (command line, seed, RNG
algorithm, version, timestamp); diagnostics go to stderr.  Exit codes:
0 success, 1 usage error, 2 data or domain error.

Each ``_cmd_*`` function returns its payload dict (``simulate`` writes CSV
and returns None); ``main`` alone wraps the payload with the manifest and
writes the JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import io
import json
import os
import shlex
import sys
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from . import __version__, limits
from .errors import DWLabError, DomainError
from .estimators import DEFAULT_BURN_IN, estimate_all, running_estimates
from .model import (
    ModelParams,
    NoiseSpec,
    NOISE_KINDS,
    RNG_ALGORITHM,
    Series,
    float_cells,
    read_csv,
    simulate,
    write_csv,
    write_table,
)
from .montecarlo import (
    STATS,
    TEST_KINDS,
    McConfig,
    _libc_function,
    _usable_cpus,
    empirical_size_power,
    lil_envelope_check,
    qsl_check,
    run_replications,
)
from .recovery import recover_params, recover_sigma2
from .testing import auto_test, critical_case_test, rho_test, rho_zero_test

THREADS_ENV = "DW_LAB_THREADS"

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameter numbers, from malloc.h


class _Parser(argparse.ArgumentParser):
    """Argument parser that prints help and exits 1 on usage errors."""

    def error(self, message):
        self.print_help(sys.stderr)
        sys.stderr.write(f"\nerror: {message}\n")
        raise SystemExit(1)


def _manifest(argv: list[str], seed: Optional[int]) -> dict:
    return {
        "command_line": shlex.join(["dwlab"] + argv),
        "seed": seed,
        "rng_algorithm": RNG_ALGORITHM,
        "artifact_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _json_default(obj):
    # np.float64 subclasses float and prints as one; other numpy values need converting
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(payload: dict) -> None:
    try:
        text = json.dumps(payload, indent=2, allow_nan=False, default=_json_default)
    except ValueError as exc:
        raise DomainError(f"result is not finite, refusing to write invalid JSON: {exc}") from exc
    sys.stdout.write(text + "\n")


def _read_series(args) -> Series:
    header = {"auto": None, "yes": True, "no": False}[args.header]
    if args.input != "-":
        return read_csv(args.input, header=header)
    # Strict UTF-8 as for a file: under a C locale sys.stdin would pass bad bytes on as surrogates.
    stdin = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8", newline="")
    try:
        return read_csv(stdin, header=header)
    finally:
        stdin.detach()  # leave sys.stdin.buffer open


def _threads(args) -> int:
    if args.threads is not None:
        if args.threads < 1:
            raise DomainError(f"--threads must be at least 1, got {args.threads}")
        return args.threads
    env = os.environ.get(THREADS_ENV)
    if not env:
        return _usable_cpus()
    try:
        threads = int(env)
    except ValueError as exc:
        raise DomainError(f"{THREADS_ENV} must be an integer, got {env!r}") from exc
    if threads < 1:
        raise DomainError(f"{THREADS_ENV} must be at least 1, got {env!r}")
    return threads


def _checkpoints(text: str) -> list[int]:
    checkpoints = []
    for token in text.split(","):
        try:
            checkpoints.append(int(token))
        except ValueError:
            raise DomainError(f"--checkpoints must be comma-separated integers, got {token!r}") from None
    return checkpoints


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(args):
    params = ModelParams(theta=args.theta, rho=args.rho, sigma2=args.sigma2, x0=args.x0, eps0=args.eps0)
    series = simulate(params, NoiseSpec(kind=args.noise), args.n, args.seed)
    write_csv(series, args.output or sys.stdout)


def _cmd_estimate(args):
    series = _read_series(args)
    est = estimate_all(series.x)
    if args.trajectories:
        traj = running_estimates(series.x, k0=args.k0)
        write_table(
            args.trajectories,
            ("k", "theta_hat", "rho_hat", "dw"),
            (traj.k.tolist(), float_cells(traj.theta), float_cells(traj.rho), float_cells(traj.dw)),
        )
    return {
        "estimates": {
            "theta_hat": est.theta_hat,
            "rho_hat": est.rho_hat,
            "sigma2_hat": est.sigma2_hat,
            "dw": est.dw,
            "theta_sq_hat": est.theta_sq_hat,
            "n": est.n,
            "residuals": est.residuals.tolist(),
        },
    }


def _cmd_test(args):
    series = _read_series(args)
    if args.kind in ("rho0", "auto") and args.rho0 is None:
        raise DomainError(f"--kind {args.kind} requires --rho0")
    if args.kind == "critical":
        return {"test": dataclasses.asdict(critical_case_test(series.x, args.alpha))}
    if args.kind == "zero":
        return {"test": dataclasses.asdict(rho_zero_test(series.x, args.alpha))}
    if args.kind == "rho0":
        outcome, weights = rho_test(series.x, args.rho0, args.alpha)
        return {"test": dataclasses.asdict(outcome), "weights": dataclasses.asdict(weights)}
    auto = auto_test(series.x, args.rho0, args.alpha)
    payload = {
        "preliminary": dataclasses.asdict(auto.preliminary),
        "branch": auto.branch,
        "test": dataclasses.asdict(auto.final),
    }
    if auto.weights is not None:
        payload["weights"] = dataclasses.asdict(auto.weights)
    return payload


def _cmd_recover(args):
    series = _read_series(args)
    est = estimate_all(series.x)
    convention = args.convention.replace("-", "_")
    rec = recover_params(est.theta_hat, est.rho_hat, convention)
    sigma2_rec = recover_sigma2(est.theta_hat, est.rho_hat, est.sigma2_hat)
    return {
        "estimates": {
            "theta_hat": est.theta_hat,
            "rho_hat": est.rho_hat,
            "sigma2_hat": est.sigma2_hat,
            "n": est.n,
        },
        "recovered": {
            "theta_rec": rec.theta_rec,
            "rho_rec": rec.rho_rec,
            "sigma2_rec": sigma2_rec,
            "convention": rec.convention,
            "s_hat": rec.s_hat,
            "p_hat": rec.p_hat,
            "out_of_region": rec.out_of_region,
        },
    }


def _cmd_limits(args):
    return {"limits": dataclasses.asdict(limits.asymptotics(args.theta, args.rho, args.sigma2))}


def _keep_freed_memory() -> None:
    """Pin glibc's malloc thresholds, so that the memory a block frees stays mapped for the next block.

    Under glibc's dynamic thresholds the heap is trimmed after a block, and
    at n = 10^6 the next block page-faults about 10 MB back in.  Fixed
    thresholds keep arrays of up to 32 MiB in the heap and let up to
    128 MiB of free memory stay there; forked workers inherit them.  Where
    the C library has no ``mallopt`` this does nothing.
    """
    mallopt = _libc_function("mallopt", 2)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 128 << 20)


def _cmd_verify(args):
    _keep_freed_memory()
    params = ModelParams(theta=args.theta, rho=args.rho, sigma2=args.sigma2)
    cfg = McConfig(
        params=params,
        noise=NoiseSpec(kind=args.noise),
        n=args.n,
        replicates=args.reps,
        base_seed=args.seed,
        alpha=args.alpha,
    )
    threads = _threads(args)
    experiment = args.experiment
    if experiment in ("clt", "joint"):
        report = run_replications(cfg, threads=threads)
    elif experiment in ("size", "power"):
        report = empirical_size_power(args.test_kind, cfg, rho0=args.rho0, threads=threads)
    elif experiment == "critical":
        report = empirical_size_power("critical", cfg, threads=threads)
    elif experiment == "qsl":
        report = qsl_check(cfg, args.which, k0=args.k0, threads=threads)
    else:  # lil
        checkpoints = _checkpoints(args.checkpoints) if args.checkpoints is not None else [cfg.n]
        report = lil_envelope_check(cfg, args.which, checkpoints, threads=threads)
    if args.csv:
        write_table(args.csv, *report.table())
    return {"report": {"experiment": experiment, **report.to_dict()}}


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # --help shows the docstring up to its last paragraph, which is about the code
    parser = _Parser(prog="dwlab", description=__doc__.rpartition("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a path and write it as CSV")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--n", type=int, required=True, help="number of steps; the path has n+1 points")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--noise", choices=NOISE_KINDS, default="gaussian")
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--eps0", type=float, default=0.0)
    p.add_argument("--output", help="CSV destination (default: stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="estimate all statistics of a series")
    p.add_argument("--input", default="-", help="CSV file or '-' for stdin")
    p.add_argument("--header", choices=("auto", "yes", "no"), default="auto")
    p.add_argument("--trajectories", help="also write running estimates to this CSV file")
    p.add_argument("--k0", type=int, default=DEFAULT_BURN_IN, help="burn-in index for trajectories")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("test", help="run a residual autocorrelation test")
    p.add_argument("--input", default="-", help="CSV file or '-' for stdin")
    p.add_argument("--header", choices=("auto", "yes", "no"), default="auto")
    p.add_argument("--kind", choices=("critical", "rho0", "zero", "auto"), required=True)
    p.add_argument("--rho0", type=float)
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("recover", help="recover (theta, rho, sigma2) from a series")
    p.add_argument("--input", default="-", help="CSV file or '-' for stdin")
    p.add_argument("--header", choices=("auto", "yes", "no"), default="auto")
    p.add_argument("--convention", choices=("theta-less", "theta-greater"), default="theta-less")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("limits", help="print the closed-form asymptotic values")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.set_defaults(func=_cmd_limits)

    p = sub.add_parser("verify", help="run a Monte Carlo verification experiment")
    p.add_argument(
        "--experiment",
        choices=("clt", "joint", "size", "power", "qsl", "lil", "critical"),
        required=True,
    )
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--noise", choices=NOISE_KINDS, default="gaussian")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--rho0", type=float, help="null value for the rho0 test kind")
    p.add_argument("--test-kind", choices=TEST_KINDS, default="zero")
    p.add_argument("--which", choices=STATS, default="theta")
    p.add_argument("--k0", type=int, default=DEFAULT_BURN_IN, help="burn-in for the qsl experiment")
    p.add_argument("--checkpoints", help="comma-separated sample sizes for the lil experiment")
    p.add_argument("--csv", help="dump per-replicate rows to this CSV file")
    p.add_argument(
        "--threads",
        type=int,
        help=f"worker processes, at most one per usable CPU (fallback: ${THREADS_ENV}, then the usable CPU count)",
    )
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command and return its exit code.

    Called with no ``argv``, as ``python -m dwlab`` and the ``dwlab`` script
    do, ``main`` reads ``sys.argv`` and is the whole life of its process.
    It then freezes the heap that start-up built (``gc.freeze``) before it
    runs the command, so the collector never scans the objects that numpy
    and dwlab create at import again: not in the collections at interpreter
    exit, which otherwise take tens of milliseconds per process, and not in
    a forked ``verify`` worker.  What the command itself creates is still
    collected.  A caller that passes ``argv`` runs ``main`` inside a longer
    life of its own (tests, the in-process benchmark), so its collector is
    left as it is.
    """
    own_process = argv is None
    if own_process:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if own_process:
        gc.freeze()
    try:
        payload = args.func(args)
        if payload is not None:
            seed = args.seed if args.command == "verify" else None
            _emit({"manifest": _manifest(argv, seed), **payload})
    except (DWLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
