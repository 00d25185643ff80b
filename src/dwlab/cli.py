"""Command line interface.

Subcommands: simulate, estimate, test, recover, limits, verify.  All JSON
output goes to stdout and embeds a run manifest (command line, seed, RNG
algorithm, version, timestamp); diagnostics go to stderr.  Exit codes:
0 success, 1 usage error, 2 data or domain error, 141 stdout closed by
its reader (as ``dwlab ... | head`` does).

Each ``_cmd_*`` function returns its payload dict (``simulate`` writes CSV
and returns None); ``main`` alone wraps the payload with the manifest and
writes the JSON.  Importing this module loads neither numpy nor dataclasses:
``--help`` and usage errors run without both, ``limits`` without numpy, and
``main`` loads the library for every other command after the parse.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import shlex
import sys
from contextlib import contextmanager, nullcontext
from datetime import datetime, timezone
from functools import cache
from typing import Optional

from . import CONVENTIONS, DEFAULT_ALPHA, DEFAULT_BURN_IN, DEFAULT_SIGMA2, DEFAULT_START, NOISE_KINDS, RNG_ALGORITHM
from . import TEST_KINDS, TRAJECTORIES, __version__
from .errors import DWLabError, DomainError

# The library names that the commands call, by module.  _load_library binds
# them as globals of this module, so that numpy loads only for a command that
# computes, and the span tracer can replace them here by attribute.
_LIBRARY = {
    "estimators": ("check_burn_in", "estimate_all", "residuals", "running_estimates"),
    "model": ("ModelParams", "NoiseSpec", "Series", "float_cells", "read_csv", "simulate", "write_csv", "write_table"),
    "montecarlo": (
        "McConfig", "_libc_function", "empirical_size_power", "lil_envelope_check", "qsl_check", "run_replications",
    ),
    "recovery": ("recover_params", "recover_sigma2"),
    "testing": ("auto_test", "critical_case_test", "rho_test", "rho_zero_test"),
}

EXIT_BROKEN_PIPE = 128 + 13  # what a shell reports for a process that SIGPIPE ended

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameter numbers, from malloc.h

_HEADERS = {"auto": None, "yes": True, "no": False}  # --header's choices, the default first, as read_csv's header=


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


@cache
def _load_library() -> None:
    """Import the numeric library and bind each ``_LIBRARY`` name not yet set here.

    It runs once, so a wrapper set on this module by attribute, before or
    after, is the function the commands call.
    """
    for module, names in _LIBRARY.items():
        loaded = importlib.import_module(f".{module}", __package__)
        for name in names:
            globals().setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    if any(name in names for names in _LIBRARY.values()):
        _load_library()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _json_default(obj):
    import numpy as np  # loaded already wherever a payload holds a numpy value

    # np.float64 subclasses float and prints as one; other numpy values need converting
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


class _Stdout:
    """The current ``sys.stdout`` for writing, each write whole or raising, as a buffered stdout does.

    Under ``python -u`` or ``PYTHONUNBUFFERED`` the text layer hands each
    write to the file in one ``write(2)`` and drops what it did not take: a
    pipe whose reader has gone, or a full disk, then cuts the output short
    without an error.  Here the bytes are written to the file descriptor
    until all of them are taken or the OS refuses.
    """

    def write(self, text: str) -> None:
        out = sys.stdout
        raw = getattr(out, "buffer", None)
        if not isinstance(raw, io.RawIOBase):
            out.write(text)
            return
        out.flush()
        data = memoryview(text.encode(out.encoding, out.errors))
        while data:
            data = data[os.write(raw.fileno(), data) :]


def _emit(payload: dict) -> None:
    try:
        text = json.dumps(payload, indent=2, allow_nan=False, default=_json_default)
    except ValueError as exc:
        raise DomainError(f"result is not finite, refusing to write invalid JSON: {exc}") from exc
    _Stdout().write(text + "\n")


def _read_series(args) -> Series:
    header = _HEADERS[args.header]
    if args.input != "-":
        return read_csv(args.input, header=header)
    # Strict UTF-8 as for a file: under a C locale sys.stdin would pass bad bytes on as surrogates.
    stdin = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8", newline="")
    try:
        return read_csv(stdin, header=header)
    finally:
        stdin.detach()  # leave sys.stdin.buffer open


def _checkpoints(args) -> list[int]:
    """The sample sizes of --checkpoints; without the option, --n alone."""
    if args.checkpoints is None:
        return [args.n]
    checkpoints = []
    for token in args.checkpoints.split(","):
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
    write_csv(series, args.output or _Stdout())


def _cmd_estimate(args):
    """The five statistics and n; the residuals and trajectories are formed only for the CSV files asked for."""
    series = _read_series(args)
    if args.trajectories:  # a burn-in the series cannot take fails before any file is written
        check_burn_in(series.n, args.k0)
    est = estimate_all(series.x)
    if args.residuals:
        res = residuals(series.x, est.theta_hat)
        write_table(args.residuals, ("k", "eps_hat"), (range(res.size), float_cells(res)))
    if args.trajectories:
        traj = running_estimates(series.x, k0=args.k0)
        write_table(
            args.trajectories,
            ("k", "theta_hat", "rho_hat", "dw"),
            (range(args.k0, series.x.size), float_cells(traj.theta), float_cells(traj.rho), float_cells(traj.dw)),
        )
    return {"estimates": vars(est)}


def _rho0(args) -> float:
    """--rho0, which the tests of H0: rho = rho0 need."""
    if args.rho0 is None:
        raise DomainError(f"--kind {args.kind} requires --rho0")
    return args.rho0


def _auto_payload(auto) -> dict:
    """Both stages of the two-stage test, and the weights of the general branch's statistic."""
    payload = {"preliminary": vars(auto.preliminary), "branch": auto.branch, "test": vars(auto.final)}
    return payload if auto.weights is None else {**payload, "weights": vars(auto.weights)}


# The payload of each test --kind, in its --help order: TEST_KINDS reversed, then the two-stage test.  Each entry
# looks its library function up as a global of this module when it is called, as the commands do (see _LIBRARY).
_TESTS = dict(zip((*TEST_KINDS[::-1], "auto"), (
    lambda x, args: {"test": vars(critical_case_test(x, args.alpha))},
    lambda x, args: dict(zip(("test", "weights"), map(vars, rho_test(x, _rho0(args), args.alpha)))),
    lambda x, args: {"test": vars(rho_zero_test(x, args.alpha))},
    lambda x, args: _auto_payload(auto_test(x, _rho0(args), args.alpha)),
)))


def _cmd_test(args):
    return _TESTS[args.kind](_read_series(args).x, args)


def _cmd_recover(args):
    est = estimate_all(_read_series(args).x)
    rec = recover_params(est.theta_hat, est.rho_hat, args.convention.replace("-", "_"))
    sigma2_rec = recover_sigma2(est.theta_hat, est.rho_hat, est.sigma2_hat)
    return {
        "estimates": {name: getattr(est, name) for name in ("theta_hat", "rho_hat", "sigma2_hat", "n")},
        # the recovered triple, then the rest of rec's fields
        "recovered": {"theta_rec": rec.theta_rec, "rho_rec": rec.rho_rec, "sigma2_rec": sigma2_rec, **vars(rec)},
    }


def _cmd_limits(args):
    from .limits import asymptotics  # here, so that parsing loads neither it nor dataclasses
    return {"limits": vars(asymptotics(args.theta, args.rho, args.sigma2))}


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


@contextmanager
def _replaced_when_done(path: str):
    """A new file beside ``path``'s target for the body to write: moved onto it if the body ends, else removed."""
    target = os.path.realpath(path)  # a symbolic link stays one, as with every other dwlab writer
    partial = f"{target}.{os.getpid()}.partial"
    if os.path.isdir(path):
        raise DomainError(f"cannot write --csv {path}: Is a directory")
    try:
        os.close(os.open(partial, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    except OSError as exc:
        raise DomainError(f"cannot write --csv {path}: {exc.strerror}") from None
    try:
        yield partial
        os.replace(partial, target)
    except BaseException:
        os.unlink(partial)
        raise


# The report of each verify --experiment, in its --help order; like _TESTS, each entry looks its library function up
# when it is called.
_EXPERIMENTS = {
    "clt": lambda cfg, args: run_replications(cfg, threads=args.threads),
    "joint": lambda cfg, args: run_replications(cfg, threads=args.threads),
    "size": lambda cfg, args: empirical_size_power(args.test_kind, cfg, rho0=args.rho0, threads=args.threads),
    "power": lambda cfg, args: empirical_size_power(args.test_kind, cfg, rho0=args.rho0, threads=args.threads),
    "qsl": lambda cfg, args: qsl_check(cfg, args.which, k0=args.k0, threads=args.threads),
    "lil": lambda cfg, args: lil_envelope_check(cfg, args.which, _checkpoints(args), threads=args.threads),
    "critical": lambda cfg, args: empirical_size_power("critical", cfg, threads=args.threads),
}


def _cmd_verify(args):
    _keep_freed_memory()
    params = ModelParams(theta=args.theta, rho=args.rho, sigma2=args.sigma2)
    cfg = McConfig(params, NoiseSpec(args.noise), args.n, replicates=args.reps, base_seed=args.seed, alpha=args.alpha)
    if args.threads is not None and args.threads < 1:
        raise DomainError(f"--threads must be at least 1, got {args.threads}")
    with _replaced_when_done(args.csv) if args.csv else nullcontext() as csv:
        report = _EXPERIMENTS[args.experiment](cfg, args)
        if csv:
            write_table(csv, *report.table())
    return {"report": {"experiment": args.experiment, **report.body}}


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # --help shows the docstring up to its last paragraph, which is about the code
    parser = _Parser(prog="dwlab", description=__doc__.rpartition("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    experiment = argparse.ArgumentParser(add_help=False)  # leads verify's --help, ahead of the model options
    experiment.add_argument("--experiment", choices=_EXPERIMENTS, required=True)
    model = argparse.ArgumentParser(add_help=False)  # lead the --help of simulate and limits, and follow --experiment
    model.add_argument("--theta", type=float, required=True)
    model.add_argument("--rho", type=float, required=True)
    model.add_argument("--sigma2", type=float, default=DEFAULT_SIGMA2)
    series = argparse.ArgumentParser(add_help=False)  # the input options of estimate, test and recover
    series.add_argument("--input", default="-", help="CSV file or '-' for stdin")
    series.add_argument("--header", choices=_HEADERS, default=next(iter(_HEADERS)))

    p = sub.add_parser("simulate", parents=[model], help="simulate a path and write it as CSV")
    p.add_argument("--n", type=int, required=True, help="number of steps; the path has n+1 points")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--noise", choices=NOISE_KINDS, default=NOISE_KINDS[0])
    p.add_argument("--x0", type=float, default=DEFAULT_START)
    p.add_argument("--eps0", type=float, default=DEFAULT_START)
    p.add_argument("--output", help="CSV destination (default: stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", parents=[series], help="estimate all statistics of a series")
    p.add_argument("--residuals", help="also write the least-squares residuals eps_hat_0..eps_hat_n to this CSV file")
    p.add_argument("--trajectories", help="also write running estimates to this CSV file")
    p.add_argument("--k0", type=int, default=DEFAULT_BURN_IN, help="burn-in index for trajectories")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("test", parents=[series], help="run a residual autocorrelation test")
    p.add_argument("--kind", choices=_TESTS, required=True)
    p.add_argument("--rho0", type=float)
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("recover", parents=[series], help="recover (theta, rho, sigma2) from a series")
    conventions = [name.replace("_", "-") for name in CONVENTIONS]  # spelled theta-less on the command line
    p.add_argument("--convention", choices=conventions, default=conventions[0])
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("limits", parents=[model], help="print the closed-form asymptotic values")
    p.set_defaults(func=_cmd_limits)

    p = sub.add_parser("verify", parents=[experiment, model], help="run a Monte Carlo verification experiment")
    p.add_argument("--noise", choices=NOISE_KINDS, default=NOISE_KINDS[0])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--rho0", type=float, help="null value for the rho0 test kind")
    p.add_argument("--test-kind", choices=TEST_KINDS, default=TEST_KINDS[0])
    p.add_argument("--which", choices=TRAJECTORIES, default=TRAJECTORIES[0])
    p.add_argument("--k0", type=int, default=DEFAULT_BURN_IN, help="burn-in for the qsl experiment")
    p.add_argument("--checkpoints", help="comma-separated sample sizes for the lil experiment")
    p.add_argument("--csv", help="write the per-replicate rows to this CSV file (the JSON holds only summaries)")
    p.add_argument("--threads", type=int, help="worker processes, at most one per usable CPU (default: every usable CPU)")
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
    a forked ``verify`` worker.  The library, and numpy with it, loads for
    every command but ``limits`` after the parse and before that freeze.
    What the command itself creates is still collected.  A caller that
    passes ``argv`` runs ``main`` inside a longer life of its own (tests,
    the in-process benchmark), so its collector is left as it is.

    A reader that closes stdout early (``| head``) ends the command with
    ``EXIT_BROKEN_PIPE`` and nothing on stderr, not as a data error.  In
    its own process ``main`` then points fd 1 at the null device, so the
    interpreter's flush at exit has nowhere to fail.  A ``verify`` run in its
    own process unwinds on SIGTERM as on Ctrl-C, so that its partial
    ``--csv`` file and its workers go, and then ends by the signal.
    """
    own_process = argv is None
    if own_process:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command != "limits":
        _load_library()  # before the freeze, so that numpy's import heap is frozen with the rest
    if own_process:
        gc.freeze()
        if args.command == "verify":
            import signal  # 1.4 ms to import, so only where a run has something to clean up
            signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        payload = args.func(args)
        if payload is not None:
            seed = args.seed if args.command == "verify" else None
            _emit({"manifest": _manifest(argv, seed), **payload})
        sys.stdout.flush()
    except BrokenPipeError:
        if own_process:
            # the reader is gone: send what is still buffered nowhere, so the flush at exit raises nothing
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_BROKEN_PIPE
    except SystemExit:  # raised by that handler alone: now end by SIGTERM, as its default action does
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.raise_signal(signal.SIGTERM)
    except (DWLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
