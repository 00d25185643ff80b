"""Command line interface.

Subcommands: simulate, estimate, test, recover, limits, verify.  All JSON
output goes to stdout and embeds a run manifest (command line, seed, RNG
algorithm, version, timestamp); diagnostics go to stderr.  Exit codes:
0 success, 1 usage error, 2 data or domain error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import shlex
import sys
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from . import __version__, limits
from .errors import DWLabError, DomainError
from .estimators import estimate_all, running_estimates
from .model import (
    ModelParams,
    NoiseSpec,
    NOISE_KINDS,
    RNG_ALGORITHM,
    Series,
    read_csv,
    simulate,
    write_csv,
)
from .montecarlo import (
    McConfig,
    empirical_size_power,
    lil_envelope_check,
    qsl_check,
    run_replications,
)
from .recovery import recover_params, recover_sigma2
from .testing import auto_test, critical_case_test, rho_test, rho_zero_test

THREADS_ENV = "DW_LAB_THREADS"


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


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _emit(payload: dict) -> None:
    try:
        text = json.dumps(_jsonable(payload), indent=2, allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"result is not finite, refusing to write invalid JSON: {exc}") from exc
    sys.stdout.write(text + "\n")


def _read_series(path: str, header: Optional[bool]) -> Series:
    if path == "-":
        return read_csv(sys.stdin, header=header)
    return read_csv(path, header=header)


def _header_flag(value: str) -> Optional[bool]:
    return {"auto": None, "yes": True, "no": False}[value]


def _threads(args) -> int:
    if args.threads is not None:
        if args.threads < 1:
            raise DomainError(f"--threads must be at least 1, got {args.threads}")
        return args.threads
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise DomainError(f"{THREADS_ENV} must be an integer, got {env!r}") from exc
    return 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(args, argv):
    params = ModelParams(theta=args.theta, rho=args.rho, sigma2=args.sigma2, x0=args.x0, eps0=args.eps0)
    noise = NoiseSpec(kind=args.noise, sigma2=args.sigma2)
    series = simulate(params, noise, args.n, args.seed)
    if args.output:
        write_csv(series, args.output)
    else:
        write_csv(series, sys.stdout)
    return 0


def _cmd_estimate(args, argv):
    series = _read_series(args.input, _header_flag(args.header))
    est = estimate_all(series.x)
    if args.trajectories:
        traj = running_estimates(series.x, k0=args.k0)
        with open(args.trajectories, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["k", "theta_hat", "rho_hat", "dw"])
            for k, th, rh, dw in zip(traj.k, traj.theta, traj.rho, traj.dw):
                w.writerow([int(k), repr(float(th)), repr(float(rh)), repr(float(dw))])
    _emit(
        {
            "manifest": _manifest(argv, None),
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
    )
    return 0


def _cmd_test(args, argv):
    series = _read_series(args.input, _header_flag(args.header))
    payload = {"manifest": _manifest(argv, None)}
    if args.kind == "critical":
        payload["test"] = dataclasses.asdict(critical_case_test(series.x, args.alpha))
    elif args.kind == "zero":
        payload["test"] = dataclasses.asdict(rho_zero_test(series.x, args.alpha))
    elif args.kind == "rho0":
        if args.rho0 is None:
            raise DomainError("--kind rho0 requires --rho0")
        outcome, weights = rho_test(series.x, args.rho0, args.alpha)
        payload["test"] = dataclasses.asdict(outcome)
        payload["weights"] = dataclasses.asdict(weights)
    else:  # auto
        if args.rho0 is None:
            raise DomainError("--kind auto requires --rho0")
        auto = auto_test(series.x, args.rho0, args.alpha)
        payload["preliminary"] = dataclasses.asdict(auto.preliminary)
        payload["branch"] = auto.branch
        payload["test"] = dataclasses.asdict(auto.final)
        if auto.weights is not None:
            payload["weights"] = dataclasses.asdict(auto.weights)
    _emit(payload)
    return 0


def _cmd_recover(args, argv):
    series = _read_series(args.input, _header_flag(args.header))
    est = estimate_all(series.x)
    convention = args.convention.replace("-", "_")
    rec = recover_params(est.theta_hat, est.rho_hat, convention)
    sigma2_rec = recover_sigma2(est.theta_hat, est.rho_hat, est.sigma2_hat)
    _emit(
        {
            "manifest": _manifest(argv, None),
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
    )
    return 0


def _cmd_limits(args, argv):
    a = limits.asymptotics(args.theta, args.rho, args.sigma2)
    _emit(
        {
            "manifest": _manifest(argv, None),
            "limits": dataclasses.asdict(a),
        }
    )
    return 0


def _verify_csv(report, dest: str) -> None:
    with open(dest, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        if report.estimates is not None:
            names = list(report.estimates)
            w.writerow(["replicate"] + names)
            for i in range(report.replicates):
                w.writerow([i] + [repr(report.estimates[n][i]) for n in names])
        elif report.test_statistics is not None:
            w.writerow(["replicate", "statistic", "reject"])
            for i, (s, r) in enumerate(zip(report.test_statistics, report.rejections)):
                w.writerow([i, repr(s), int(r)])
        elif report.qsl is not None:
            w.writerow(["replicate", "qsl_value"])
            for i, v in enumerate(report.qsl["values"]):
                w.writerow([i, repr(v)])
        elif report.lil is not None:
            cols = [f"deviation_{m}" for m in report.lil["checkpoints"]]
            w.writerow(["replicate"] + cols)
            for i, devs in enumerate(report.lil["deviations"]):
                w.writerow([i] + [repr(v) for v in devs])


def _cmd_verify(args, argv):
    params = ModelParams(theta=args.theta, rho=args.rho, sigma2=args.sigma2)
    noise = NoiseSpec(kind=args.noise, sigma2=args.sigma2)
    cfg = McConfig(
        params=params,
        noise=noise,
        n=args.n,
        replicates=args.reps,
        base_seed=args.seed,
        alpha=args.alpha,
    )
    threads = _threads(args)
    experiment = args.experiment
    if experiment in ("clt", "joint"):
        report = run_replications(cfg, threads=threads)
        report.experiment = experiment
    elif experiment in ("size", "power"):
        report = empirical_size_power(args.test_kind, cfg, rho0=args.rho0, threads=threads)
        report.experiment = experiment
    elif experiment == "critical":
        report = empirical_size_power("critical", cfg, threads=threads)
    elif experiment == "qsl":
        report = qsl_check(cfg, args.which, k0=args.k0, threads=threads)
    else:  # lil
        checkpoints = [int(tok) for tok in args.checkpoints.split(",")] if args.checkpoints else [cfg.n]
        report = lil_envelope_check(cfg, args.which, checkpoints, threads=threads)
    if args.csv:
        _verify_csv(report, args.csv)
    _emit({"manifest": _manifest(argv, args.seed), "report": report.to_dict()})
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dwlab", description=__doc__)
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
    p.add_argument("--k0", type=int, default=10, help="burn-in index for trajectories")
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
    p.add_argument("--test-kind", choices=("zero", "rho0", "critical"), default="zero")
    p.add_argument("--which", choices=("theta", "rho", "dw"), default="theta")
    p.add_argument("--k0", type=int, default=10, help="burn-in for the qsl experiment")
    p.add_argument("--checkpoints", help="comma-separated sample sizes for the lil experiment")
    p.add_argument("--csv", help="dump per-replicate rows to this CSV file")
    p.add_argument("--threads", type=int, help=f"worker threads (fallback: ${THREADS_ENV}, then 1)")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, argv)
    except DWLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
