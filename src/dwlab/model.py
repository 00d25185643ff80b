"""Stochastic model and simulation.

The observed process is a first-order autoregression whose driving noise is
itself a first-order autoregression:

    X_k = theta * X_{k-1} + eps_k
    eps_k = rho * eps_{k-1} + V_k

with |theta| < 1, |rho| < 1 and (V_k) i.i.d. with mean zero, variance sigma2
and a finite fourth moment.  Simulation is exact: the recurrences above hold
bit for bit on the generated arrays.

:func:`simulate` is the only user of ``scipy.signal`` (for ``lfilter``) and
imports it on its first call, so commands that only read a series never
load it.  That first call should run on the caller's thread, not in a
worker of a thread pool: the Monte Carlo engine runs replicate 0 itself for
this reason, because importing scipy.signal in a worker measured more page
faults and a slower run.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import IO, Optional, Union

import numpy as np

from .errors import DomainError, InvalidLength, OutOfRegion

MAX_LENGTH = 2**31 - 1

NOISE_KINDS = ("gaussian", "uniform", "rademacher")

RNG_ALGORITHM = "philox4x64"

_MASK64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class ModelParams:
    """Ground-truth parameter set (theta, rho, sigma2) plus initial values."""

    theta: float
    rho: float
    sigma2: float = 1.0
    x0: float = 0.0
    eps0: float = 0.0


@dataclass(frozen=True)
class NoiseSpec:
    """Distribution of the i.i.d. innovations V_k.

    All kinds have mean zero, variance ``sigma2`` and a finite fourth moment:

    * ``gaussian``    N(0, sigma2)
    * ``uniform``     uniform on [-sqrt(3 sigma2), +sqrt(3 sigma2)]
    * ``rademacher``  +-sqrt(sigma2) with probability 1/2 each
    """

    kind: str = "gaussian"
    sigma2: float = 1.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise DomainError(f"unknown noise kind {self.kind!r}, expected one of {NOISE_KINDS}")
        if not (self.sigma2 > 0.0) or not math.isfinite(self.sigma2):
            raise OutOfRegion("sigma2", "noise variance must be positive and finite")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        sd = math.sqrt(self.sigma2)
        if self.kind == "gaussian":
            return rng.standard_normal(n) * sd
        if self.kind == "uniform":
            half = math.sqrt(3.0 * self.sigma2)
            return rng.uniform(-half, half, n)
        # rademacher
        return (2.0 * rng.integers(0, 2, size=n) - 1.0) * sd


@dataclass(frozen=True)
class Series:
    """One realization X_0..X_n, optionally with the latent noise sequences.

    ``eps`` holds eps_0..eps_n and ``v`` holds V_1..V_n; both are present for
    simulated series and absent for ingested data.  Arrays are marked
    read-only, so a Series is safe to share across threads.
    """

    x: np.ndarray
    eps: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    params: Optional[ModelParams] = None

    def __post_init__(self):
        x = np.ascontiguousarray(self.x, dtype=np.float64)
        if x.ndim != 1 or x.size < 2:
            raise InvalidLength("a series needs at least two points X_0, X_1")
        object.__setattr__(self, "x", x)
        for name, size in (("eps", x.size), ("v", x.size - 1)):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.ascontiguousarray(arr, dtype=np.float64)
                if arr.shape != (size,):
                    raise InvalidLength(f"{name} needs {size} values to match x, got shape {arr.shape}")
                object.__setattr__(self, name, arr)
                arr.setflags(write=False)
        x.setflags(write=False)

    @property
    def n(self) -> int:
        """Number of steps, i.e. the index of the last point."""
        return self.x.size - 1


def validate_params(p: ModelParams) -> None:
    """Check |theta| < 1, |rho| < 1 and sigma2 > 0.

    Raises OutOfRegion naming the offending field; initial values only need
    to be finite.
    """
    if not (abs(p.theta) < 1.0) or not math.isfinite(p.theta):
        raise OutOfRegion("theta")
    if not (abs(p.rho) < 1.0) or not math.isfinite(p.rho):
        raise OutOfRegion("rho")
    if not (p.sigma2 > 0.0) or not math.isfinite(p.sigma2):
        raise OutOfRegion("sigma2")
    for name in ("x0", "eps0"):
        if not math.isfinite(getattr(p, name)):
            raise OutOfRegion(name)


def check_seed(seed: int) -> int:
    """Return the seed as an int; reject anything but an unsigned 64-bit integer."""
    if not isinstance(seed, (int, np.integer)):
        raise DomainError("seed must be an integer")
    if seed < 0 or seed > _MASK64:
        raise DomainError("seed must fit in an unsigned 64-bit integer")
    return int(seed)


def make_rng(seed: int) -> np.random.Generator:
    """Philox (4x64) generator keyed on the seed.

    Philox is counter based, so distinct keys give independent streams and
    the mapping seed -> stream is identical on every platform.
    """
    key = np.array([check_seed(seed), 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def simulate(params: ModelParams, noise: NoiseSpec, n: int, seed: int) -> Series:
    """Draw X_0..X_n with the latent sequences attached.

    The result is a deterministic function of (params, noise, n, seed) and
    the defining recurrences hold exactly on the returned arrays: recomputing
    theta*X_{k-1} + eps_k in float64 reproduces X_k bit for bit.
    """
    validate_params(params)
    if n < 2:
        raise InvalidLength(f"need n >= 2 steps, got {n}")
    if n > MAX_LENGTH:
        raise InvalidLength(f"n exceeds the supported maximum {MAX_LENGTH}")
    # Imported here, not at module load: scipy.signal takes about a second to import.
    from scipy.signal import lfilter

    rng = make_rng(seed)
    v = noise.sample(n, rng)

    # lfilter runs the one-pole recursions y_k = a*y_{k-1} + u_k in C with the
    # same two roundings per step as a naive loop, hence bit-exact recurrences.
    eps = np.empty(n + 1)
    eps[0] = params.eps0
    eps[1:] = lfilter([1.0], [1.0, -params.rho], v, zi=np.array([params.rho * params.eps0]))[0]
    x = np.empty(n + 1)
    x[0] = params.x0
    x[1:] = lfilter([1.0], [1.0, -params.theta], eps[1:], zi=np.array([params.theta * params.x0]))[0]
    return Series(x=x, eps=eps, v=v, params=params)


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

CSV_HEADER = ("k", "x", "eps", "v")


def write_csv(series: Series, dest: Union[str, Path, IO[str]]) -> None:
    """Write columns k, x, eps, v; floats use shortest round-trip formatting."""
    x = map(repr, series.x.tolist())
    eps = map(repr, series.eps.tolist()) if series.eps is not None else repeat("")
    v = chain([""], map(repr, series.v.tolist())) if series.v is not None else repeat("")
    rows = map("{},{},{},{}\n".format, range(series.x.size), x, eps, v)
    text = ",".join(CSV_HEADER) + "\n" + "".join(rows)
    if isinstance(dest, (str, Path)):
        with open(dest, "w", newline="") as fh:
            fh.write(text)
    else:
        dest.write(text)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def read_csv(source: Union[str, Path, IO[str]], header: Optional[bool] = None) -> Series:
    """Read a series from CSV.

    Accepts either a single numeric column of X values or the export format
    written by :func:`write_csv` (the column named ``x`` is used).  With
    ``header=None`` a header line is auto-detected by a non-numeric first
    token.  Non-finite values (nan, inf) raise DomainError.  Latent
    sequences are never attached to ingested data.
    """
    own = isinstance(source, (str, Path))
    fh = open(source, "r", newline="") if own else source
    try:
        rows = [row for row in csv.reader(fh) if "".join(row).strip()]
    finally:
        if own:
            fh.close()
    if not rows:
        raise InvalidLength("empty CSV input")

    has_header = header
    if has_header is None:
        has_header = not _is_number(rows[0][0].strip())
    x_col = 0
    if has_header:
        names = [tok.strip().lower() for tok in rows[0]]
        if len(names) > 1:
            if "x" not in names:
                raise DomainError(f"multi-column CSV without an 'x' column: {names}")
            x_col = names.index("x")
        rows = rows[1:]
    elif len(rows[0]) > 1:
        raise DomainError("multi-column CSV requires a header naming the 'x' column")

    try:
        x = np.array(list(map(float, map(itemgetter(x_col), rows))), dtype=np.float64)
    except (ValueError, IndexError) as exc:
        raise DomainError(f"non-numeric value in CSV column {x_col}: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise DomainError(f"non-finite value {x[bad[0]]!r} in CSV column {x_col}, data row {bad[0]}")
    return Series(x=x)


def read_csv_text(text: str, header: Optional[bool] = None) -> Series:
    """Convenience wrapper around :func:`read_csv` for in-memory text."""
    return read_csv(io.StringIO(text), header=header)
