"""Benchmark of the dwlab command line, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload cli_pipeline --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload

With ``--trace 0`` every command runs in a fresh ``python -m dwlab`` process,
CSV in and JSON out, as a user runs it; the workload's command list is
repeated for ``--seconds`` (at least three passes) and timings are medians
over the passes.  With ``--trace 1`` the same commands run in-process through
``dwlab.cli.main`` under the span tracer of ``spans.py`` and the per-layer
numbers are reported.  Every output is checked (see ``checks.py``); a failed
check is counted, it does not stop the run.

Each line before the last is ``name value unit``; the last line is one JSON
object with the keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Optional

import checks
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("cli_pipeline", "mc_short_paths", "mc_long_paths")
THREADS = 2  # the machine the benchmark was defined on has 2 cores
THREAD_ENV = ("DW_LAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")

IMPORT_REPS = 3  # fresh-interpreter imports per run for setup_s and for each import probe
MIN_PASSES = 3
CMD_TIMEOUT_S = 150.0

THETA, RHO = "0.5", "0.3"
PIPELINE_N = 50_000
SHORT_N, SHORT_REPS = 5000, 3000
LONG_N, QSL_REPS, LIL_REPS = 1_000_000, 100, 20
LIL_CHECKPOINTS = "1000,10000,100000,1000000"

# A fixed process that runs no code of this repository: standard-library
# imports and a numpy loop, the two kinds of work the workloads do.  It runs
# after every timed command and import; end-to-end times are scaled by
# REFERENCE_NOMINAL_S / (its median time next to them), which removes the
# drift in machine speed that comes in periods longer than a run.  -I keeps
# src/ off its import path.
REFERENCE = (
    "import asyncio, decimal, email.mime.multipart, http.server, json, logging, sqlite3, "
    "tarfile, unittest, urllib.request, xml.etree.ElementTree, zipfile\n"
    "import numpy as np\n"
    "a = np.random.default_rng(0).standard_normal(1_000_000)\n"
    "for _ in range(5): np.cumsum(a); (a * a).sum()"
)
REFERENCE_NOMINAL_S = 0.29  # its median time on the machine the benchmark was defined on
REFERENCES_PER_PASS = 4  # and at least one after every command

now = time.perf_counter


@dataclass
class Command:
    name: str
    argv: list
    out: Path  # stdout destination
    seed: int = 0


def derive_seed(seed: int, *path) -> int:
    """A 63-bit seed for one command, fixed by the workload seed and the command's place."""
    digest = hashlib.sha256(":".join(map(str, (seed,) + path)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def commands(workload: str, seed: int, work: Path) -> list:
    model = ["--theta", THETA, "--rho", RHO]
    if workload == "cli_pipeline":
        csv = str(work / "path.csv")
        s = derive_seed(seed, "simulate")
        return [
            Command("simulate", ["simulate", *model, "--n", str(PIPELINE_N), "--noise", "gaussian",
                                 "--seed", str(s), "--output", csv], work / "simulate.out", s),
            Command("estimate", ["estimate", "--input", csv], work / "estimate.json"),
            Command("test", ["test", "--input", csv, "--kind", "auto", "--rho0", RHO, "--alpha", "0.05"],
                    work / "test.json"),
            Command("recover", ["recover", "--input", csv], work / "recover.json"),
            Command("limits", ["limits", *model], work / "limits.json"),
        ]
    threads = ["--threads", str(THREADS)]
    if workload == "mc_short_paths":
        short = ["verify", *model, "--n", str(SHORT_N), "--reps", str(SHORT_REPS), *threads]
        s1, s2 = derive_seed(seed, "clt"), derive_seed(seed, "power")
        return [
            Command("clt", [*short, "--experiment", "clt", "--seed", str(s1)], work / "clt.json", s1),
            Command("power", [*short, "--experiment", "power", "--test-kind", "rho0", "--rho0", "0.0",
                              "--noise", "rademacher", "--seed", str(s2)], work / "power.json", s2),
        ]
    long = ["verify", *model, "--n", str(LONG_N), *threads]
    s1, s2 = derive_seed(seed, "qsl"), derive_seed(seed, "lil")
    return [
        Command("qsl", [*long, "--reps", str(QSL_REPS), "--experiment", "qsl", "--which", "theta",
                        "--seed", str(s1)], work / "qsl.json", s1),
        Command("lil", [*long, "--reps", str(LIL_REPS), "--experiment", "lil", "--which", "rho",
                        "--checkpoints", LIL_CHECKPOINTS, "--seed", str(s2)], work / "lil.json", s2),
    ]


def with_option(cmd: Command, option: str, value: str, tag: str) -> Command:
    """The command with ``option`` set to ``value`` (when it has the option), writing to a tagged file."""
    argv = list(cmd.argv)
    if option in argv:
        argv[argv.index(option) + 1] = value
    return Command(cmd.name, argv, cmd.out.with_name(f"{cmd.out.stem}.{tag}{cmd.out.suffix}"), cmd.seed)


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DW_LAB_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(argv: list, out: Path, env: dict) -> tuple:
    """Run one process to completion; returns (seconds, exit code, peak RSS in KiB)."""
    with open(out, "wb") as fh, open(out.with_suffix(".err"), "wb") as err:
        start = now()
        proc = subprocess.Popen(argv, stdout=fh, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CMD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = now() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss


def reference_time(env: dict, work: Path) -> float:
    return run_child([sys.executable, "-I", "-c", REFERENCE], work / "reference.out", env)[0]


def time_imports(module: str, env: dict, reps: int, work: Path, refs: Optional[list] = None) -> list:
    """Wall times of fresh interpreters importing ``module``.

    With ``refs`` given, the reference process runs after each import and its
    time is appended there.
    """
    argv = [sys.executable, "-c", f"import {module}"]
    out = work / "import.out"
    times = []
    for _ in range(reps):
        elapsed, rc, _ = run_child(argv, out, env)
        if rc != 0:
            raise RuntimeError(f"`import {module}` failed with exit code {rc}")
        times.append(elapsed)
        if refs is not None:
            refs.append(reference_time(env, work))
    return times


def run_inprocess(cmds: list, main) -> tuple:
    """Call ``main(argv)`` for each command with stdout sent to its file; returns (seconds, codes)."""
    codes = []
    start = now()
    for cmd in cmds:
        with open(cmd.out, "w") as fh, contextlib.redirect_stdout(fh):
            try:
                codes.append(main(cmd.argv))
            except Exception:  # a crash is a failed command, not a failed benchmark
                traceback.print_exc()
                codes.append(-1)
    return now() - start, codes


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_outputs(workload: str, cmds: list, codes: list) -> dict:
    """Problems per command name for one run of the workload's commands."""
    from dwlab import estimators, model, montecarlo
    from dwlab.errors import DWLabError

    problems, payloads = {}, {}
    for cmd, rc in zip(cmds, codes):
        problems[cmd.name] = checks.exit_code(rc)
        if cmd.name != "simulate":
            payloads[cmd.name], bad = checks.strict_json(cmd.out.read_text())
            problems[cmd.name] += bad
    if workload == "cli_pipeline":
        sim = cmds[0]
        ref = model.simulate(model.ModelParams(theta=float(THETA), rho=float(RHO)),
                             model.NoiseSpec("gaussian"), PIPELINE_N, sim.seed)
        csv = sim.argv[sim.argv.index("--output") + 1]
        try:
            problems["simulate"] += checks.same_bits(model.read_csv(csv).x, ref.x, "read_csv(simulated file)")
        except (DWLabError, OSError) as exc:
            problems["simulate"].append(f"read_csv: {exc}")
        if payloads.get("estimate"):
            problems["estimate"] += checks.estimates_match(payloads["estimate"], estimators.estimate_all(ref.x))
    else:
        for name, payload in payloads.items():
            if payload:
                problems[name] += checks.report_tolerances(payload, montecarlo)
    return problems


def count(problems: dict) -> tuple:
    """(attempted, failed) for one run; each problem is also written to stderr."""
    for name, items in problems.items():
        for item in items:
            print(f"check failed: {name}: {item}", file=sys.stderr)
    return len(problems), sum(1 for items in problems.values() if items)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, work: Path) -> tuple:
    """Untraced run: fresh processes only.  Returns (metrics, printed extras, attempted, failed)."""
    env = child_env()
    setup_refs = []
    setup = time_imports("dwlab.cli", env, IMPORT_REPS, work, setup_refs)
    walls, pass_lengths, times, refs, rss, attempted, failed = [], [], {}, [], 0, 0, 0
    start = now()
    while len(walls) < MIN_PASSES or now() - start + statistics.median(pass_lengths) <= seconds:
        cmds = commands(workload, derive_seed(seed, "pass", len(walls)), work)
        codes, wall, t0 = [], 0.0, now()
        for cmd in cmds:
            elapsed, rc, maxrss = run_child([sys.executable, "-m", "dwlab", *cmd.argv], cmd.out, env)
            refs.extend(reference_time(env, work) for _ in range(max(1, REFERENCES_PER_PASS // len(cmds))))
            times.setdefault(cmd.name, []).append(elapsed)
            codes.append(rc)
            wall += elapsed
            rss = max(rss, maxrss)
        walls.append(wall)
        a, f = count(check_outputs(workload, cmds, codes))
        attempted, failed = attempted + a, failed + f
        pass_lengths.append(now() - t0)

    scale = REFERENCE_NOMINAL_S / statistics.median(refs)
    metrics = {
        "setup_s": statistics.median(setup) * REFERENCE_NOMINAL_S / statistics.median(setup_refs),
        "wall_s": statistics.median(walls) * scale,
        "peak_rss_mb": rss * 1024 / 1e6,
    }
    extras = {
        "error_rate": (failed / attempted, "ratio"),
        "passes": (len(walls), "count"),
        "reference_s": (statistics.median(refs), "s"),
        "setup_raw_s": (statistics.median(setup), "s"),
        "wall_raw_s": (statistics.median(walls), "s"),
    }
    for name, ts in times.items():
        extras[f"{name}_s"] = (statistics.median(ts) * scale, "s")
    if workload == "mc_short_paths":
        for name in ("clt", "power"):
            extras[f"{name}_reps_per_s"] = (SHORT_REPS / extras.pop(f"{name}_s")[0], "1/s")
    return metrics, extras, attempted, failed


def traced(workload: str, seed: int, work: Path, dw) -> tuple:
    """Traced run: in-process calls of dwlab.cli.main with spans around the layers."""
    env = child_env()
    metrics = {
        "cli.import_s": statistics.median(time_imports("dwlab.cli", env, IMPORT_REPS, work)),
        "cli.import_scipy_signal_s": statistics.median(time_imports("scipy.signal", env, IMPORT_REPS, work)),
    }
    cmds = commands(workload, derive_seed(seed, "pass", 0), work)
    one = [with_option(c, "--threads", "1", "t1") for c in cmds]
    parallel = any("--threads" in c.argv for c in cmds)

    # A shortened run of every command first (one replicate for verify), untimed:
    # the first large arrays of a process cost page faults that would otherwise
    # land on whichever timing comes first.
    run_inprocess([with_option(c, "--reps", "1", "warm") for c in one], dw.cli.main)
    wall_1, _ = run_inprocess(one, dw.cli.main)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        wall_t, codes_t = run_inprocess(one, tracer.wrap(dw.cli.main))
    if parallel:
        wall_2, codes_2 = run_inprocess(cmds, dw.cli.main)
        problems = check_outputs(workload, cmds, codes_2)
        for a, b, rc in zip(one, cmds, codes_t):
            pa, bad = checks.strict_json(a.out.read_text())
            pb, _ = checks.strict_json(b.out.read_text())
            problems[a.name] += checks.exit_code(rc) + bad
            if pa and pb:
                problems[a.name] += checks.reports_identical(pa, pb, a.name)
    else:
        problems = check_outputs(workload, one, codes_t)
    attempted, failed = count(problems)

    metrics.update(spans.layer_metrics(tracer.spans))
    payloads = [checks.strict_json(c.out.read_text())[0] for c in one if c.name != "simulate"]
    outputs = [Path(c.argv[c.argv.index("--output") + 1]) for c in one if "--output" in c.argv]
    metrics.update(
        {
            "cli.json_bytes": sum(c.out.stat().st_size for c in one if c.name != "simulate"),
            "model.csv_bytes": sum(p.stat().st_size for p in outputs if p.exists()),
            "montecarlo.replicates": sum((p or {}).get("report", {}).get("replicates", 0) for p in payloads),
            "montecarlo.scaling_eff_2t": wall_1 / (2.0 * wall_2) if parallel else 0.0,
            "trace.wall_s": wall_t,
            "trace.unaccounted_s": wall_t - sum(spans.self_times(tracer.spans)),
            "trace_overhead": wall_t / wall_1 - 1.0,
        }
    )
    extras = {"untraced_1t_s": (wall_1, "s"), "error_rate": (failed / attempted, "ratio")}
    if parallel:
        extras["untraced_2t_s"] = (wall_2, "s")
    return metrics, extras, attempted, failed


# ---------------------------------------------------------------------------
# environment and entry point
# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    def first_line(path: str, key: str) -> str:
        with contextlib.suppress(OSError):
            for line in open(path):
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
        return "unknown"

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "dwlab").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "ram": first_line("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload_seed": seed,
        **{name: os.environ.get(name) for name in THREAD_ENV},
    }


def load_package():
    """Import dwlab from this checkout's src/, never from anywhere else."""
    if not (SRC / "dwlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no dwlab package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import dwlab
    import dwlab.cli

    if Path(dwlab.__file__).resolve().parent != (SRC / "dwlab").resolve():
        raise SystemExit(f"error: imported dwlab from {dwlab.__file__}, not from {SRC}")
    return dwlab


def run_one(workload: str, seed: int, seconds: float, trace: bool, dw) -> tuple:
    """One workload; the metrics carry the units BENCHMARK.json declares for them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            metrics, extras, attempted, failed = traced(workload, seed, work, dw)
        else:
            metrics, extras, attempted, failed = measure(workload, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(metrics.keys() ^ units.keys())} do not match BENCHMARK.json")
    return {k: (v, units[k]) for k, v in metrics.items()}, extras, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env_record = environment(args.seed)
    dw = load_package()
    os.environ.pop("DW_LAB_THREADS", None)  # the in-process runs always pass --threads
    print("env " + json.dumps(env_record))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        metrics, extras, attempted, failed = run_one(workload, args.seed, args.seconds, bool(args.trace), dw)
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, (value, unit) in {**metrics, **extras}.items():
            print(f"{prefix}{name} {value!r} {unit}")
        result["attempted"] += attempted
        result["failed"] += failed
        for name, (value, unit) in metrics.items():
            result["metrics"][prefix + name] = {"value": value, "unit": unit}
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
