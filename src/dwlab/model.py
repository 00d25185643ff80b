"""Stochastic model and simulation.

The observed process is a first-order autoregression whose driving noise is
itself a first-order autoregression:

    X_k = theta * X_{k-1} + eps_k
    eps_k = rho * eps_{k-1} + V_k

with |theta| < 1, |rho| < 1 and (V_k) i.i.d. with mean zero, variance sigma2
and a finite fourth moment.  Simulation is exact: the recurrences above hold
bit for bit on the generated arrays.

:func:`simulate_paths` draws a block of paths stacked along a leading
axis, one Philox stream per row; :func:`simulate` is its one-path case.  It
is the only user of scipy.  Its two one-pole recursions run in the compiled
loop behind ``scipy.signal.lfilter`` (``_linear_filter`` in scipy's
``_sigtools`` extension), which :func:`_linear_filter` loads from its file
on the first call without importing the ``scipy.signal`` package: that
import takes over a second and pulls in scipy.stats, scipy.interpolate and
scipy.optimize.  Commands that only read a series never load the extension.
Each recursion runs from zero state over rows that start with the initial
value, eps_0 or X_0, so a block holds three path-sized arrays (the draws,
eps and X) and copies none of them.
"""

from __future__ import annotations

import csv
import importlib.machinery
import importlib.util
import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache
from itertools import chain, islice, repeat
from operator import itemgetter, methodcaller
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Sequence, Union

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
    """Distribution of the i.i.d. innovations V_k; their variance is ``ModelParams.sigma2``.

    All kinds have mean zero, the variance ``sigma2`` passed to
    :meth:`sample` and a finite fourth moment:

    * ``gaussian``    N(0, sigma2)
    * ``uniform``     uniform on [-sqrt(3 sigma2), +sqrt(3 sigma2)]
    * ``rademacher``  +-sqrt(sigma2) with probability 1/2 each
    """

    kind: str = "gaussian"

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise DomainError(f"unknown noise kind {self.kind!r}, expected one of {NOISE_KINDS}")

    def sample(self, n: int, rng: np.random.Generator, sigma2: float) -> np.ndarray:
        """n draws of the innovation with variance sigma2, which the caller has validated."""
        out = np.empty(n)
        self._draw_into(out, rng, sigma2)
        return out

    def _draw_into(self, out: np.ndarray, rng: np.random.Generator, sigma2: float) -> None:
        """Fill the contiguous float64 array ``out`` with draws, in place.

        The values are bit for bit those of ``rng.standard_normal(n) * sd``,
        ``rng.uniform(-half, half, n)`` (which forms -half + 2*half*u) and
        ``(2.0 * rng.integers(0, 2, size=n) - 1.0) * sd``.
        """
        sd = math.sqrt(sigma2)
        if self.kind == "gaussian":
            rng.standard_normal(out=out)
            out *= sd
        elif self.kind == "uniform":
            half = math.sqrt(3.0 * sigma2)
            rng.random(out=out)
            out *= 2.0 * half
            out += -half
        else:  # rademacher
            np.multiply(rng.integers(0, 2, size=out.size), 2.0, out=out)
            out -= 1.0
            out *= sd


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


def check_sigma2(sigma2: float) -> None:
    """Raise OutOfRegion unless the noise variance sigma2 is positive and finite."""
    if not (sigma2 > 0.0) or not math.isfinite(sigma2):
        raise OutOfRegion("sigma2", "noise variance must be positive and finite")


def validate_params(p: ModelParams) -> None:
    """Check |theta| < 1, |rho| < 1 and sigma2 > 0.

    Raises OutOfRegion naming the offending field; initial values only need
    to be finite.
    """
    if not (abs(p.theta) < 1.0) or not math.isfinite(p.theta):
        raise OutOfRegion("theta")
    if not (abs(p.rho) < 1.0) or not math.isfinite(p.rho):
        raise OutOfRegion("rho")
    check_sigma2(p.sigma2)
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


def simulate_paths(params: ModelParams, noise: NoiseSpec, n: int, seeds: Sequence[int]) -> tuple:
    """Draw a block of paths, row i from the stream ``make_rng(seeds[i])``.

    Returns ``(x, eps, v)`` of shapes (B, n+1), (B, n+1) and (B, n) for
    B = len(seeds): X_0..X_n, eps_0..eps_n and V_1..V_n of every path.  Each
    row is a deterministic function of (params, noise, n, seeds[i]) alone,
    bit for bit the path that a block of one draws from the same seed, and
    the defining recurrences hold exactly on it: recomputing
    theta*X_{k-1} + eps_k in float64 reproduces X_k bit for bit.  ``v`` is a
    view from column 1 of a (B, n+1) buffer: each row is contiguous, the
    block is not.
    """
    validate_params(params)
    if n < 2:
        raise InvalidLength(f"need n >= 2 steps, got {n}")
    if n > MAX_LENGTH:
        raise InvalidLength(f"n exceeds the supported maximum {MAX_LENGTH}")
    # u holds eps_0 then V_1..V_n in each row
    u = np.empty((len(seeds), n + 1))
    u[:, 0] = params.eps0
    for row, seed in zip(u, seeds):
        noise._draw_into(row[1:], make_rng(seed), params.sigma2)

    # lfilter's C loop runs the one-pole recursion y_k = a*y_{k-1} + u_k
    # along each row, with the same two roundings per step as a naive loop,
    # hence bit-exact recurrences.  From zero state its first step is
    # y_0 = 0.0 + 1.0*u_0 = u_0, and it carries a*u_0 on, just as zi = a*u_0
    # would: a row led by its initial value filters to the path, with no
    # copy.  eps's column 0 carries X_0 into the second filter and is then
    # restored; x's is written back, as a -0.0 start comes out as +0.0.
    # With a[0] = 1 lfilter would pass b, a and u to the loop unchanged, so
    # the paths are the ones lfilter draws.
    one_pole = _linear_filter()
    b = np.array([1.0])
    eps = one_pole(b, np.array([1.0, -params.rho]), u, -1)
    eps[:, 0] = params.x0
    x = one_pole(b, np.array([1.0, -params.theta]), eps, -1)
    eps[:, 0] = params.eps0
    x[:, 0] = params.x0
    return x, eps, u[:, 1:]


@cache
def _linear_filter():
    """``_linear_filter(b, a, u, axis, zi)`` from scipy's ``signal/_sigtools`` extension.

    The extension is loaded from its file, found without running any scipy
    ``__init__``, so the ``scipy.signal`` package is never imported.  The
    module is registered under its own name, so a later ``import
    scipy.signal`` by other code reuses it.  The file suffix comes from
    ``EXTENSION_SUFFIXES``, which is complete from interpreter start, so the
    first call may come from any thread.
    """
    name = "scipy.signal._sigtools"
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    path = str(Path(scipy_dir, "signal", "_sigtools" + importlib.machinery.EXTENSION_SUFFIXES[0]))
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_file_location(name, path, loader=loader))
    loader.exec_module(module)
    return module._linear_filter


def simulate(params: ModelParams, noise: NoiseSpec, n: int, seed: int) -> Series:
    """Draw X_0..X_n with the latent sequences attached: :func:`simulate_paths` for one seed."""
    x, eps, v = simulate_paths(params, noise, n, [seed])
    return Series(x=x[0], eps=eps[0], v=v[0])


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

CSV_HEADER = ("k", "x", "eps", "v")

_ROWS_PER_WRITE = 4096  # rows formatted and written per call; the time was flat from 10^3 to 10^5
# characters of whole lines that read_csv parses per step: the read time was flat from 4 to
# 64 KiB, and a larger chunk's line and float objects leave more memory mapped after the read
_READ_CHUNK = 1 << 13


def float_cells(values) -> Iterator[str]:
    """Shortest round-trip text of each value, so a written table reads back bit for bit.

    The values are converted ``_ROWS_PER_WRITE`` at a time, so the cells of a
    long column are never all held at once.
    """
    arr = np.asarray(values, dtype=np.float64)
    chunks = (arr[i : i + _ROWS_PER_WRITE].tolist() for i in range(0, arr.size, _ROWS_PER_WRITE))
    return map(repr, chain.from_iterable(chunks))


def write_table(dest: Union[str, Path, IO[str]], header: Sequence[str], columns: Sequence[Iterable]) -> None:
    """Write a CSV table: the header row, then row i holding cell i of every column.

    Cells are strings (or ints, such as a row index) that need no quoting;
    rows stop at the shortest column.  The rows are formatted and written
    ``_ROWS_PER_WRITE`` at a time, to a path or an open text handle, so the
    memory held does not grow with the length of the table.
    """
    row = ",".join(["{}"] * len(columns)) + "\n"
    lines = map(row.format, *columns)
    with open(dest, "w", newline="") if isinstance(dest, (str, Path)) else nullcontext(dest) as fh:
        fh.write(",".join(header) + "\n")
        while text := "".join(islice(lines, _ROWS_PER_WRITE)):
            fh.write(text)


def write_csv(series: Series, dest: Union[str, Path, IO[str]]) -> None:
    """Write columns k, x, eps, v; floats use shortest round-trip formatting."""
    eps = float_cells(series.eps) if series.eps is not None else repeat("")
    v = chain([""], float_cells(series.v)) if series.v is not None else repeat("")
    write_table(dest, CSV_HEADER, (range(series.x.size), float_cells(series.x), eps, v))


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _csv_rows(lines: Iterable[str]) -> Iterator[list]:
    """The csv module's rows of ``lines``, without the blank ones (every field empty or whitespace)."""
    return (row for row in csv.reader(lines) if "".join(row).strip())


def _floats(rows: Iterable[Sequence[str]], col: int) -> Iterator[float]:
    return map(float, map(itemgetter(col), rows))


def _column_chunks(fh: IO[str], x_col: int) -> Iterator[Iterable[float]]:
    """The values of column ``x_col`` in the rest of ``fh``: a list per plain chunk of lines, then the csv module's.

    A plain chunk (see :func:`read_csv`) must also come as lines that each
    end at their one newline, which a source opened with ``newline="\\r"``
    does not give.  Then a line's fields are its comma-separated parts, and
    a line that is only a newline is the csv module's blank row.
    """
    split = methodcaller("split", ",", x_col + 1)
    limit = csv.field_size_limit()
    while lines := fh.readlines(_READ_CHUNK):
        text = "".join(lines)
        plain = (
            '"' not in text
            and "\r" not in text
            and "\0" not in text
            and text.count("\n") == len(lines) - (not text.endswith("\n"))
            and (len(text) <= limit or max(map(len, lines)) <= limit)
        )
        if not plain:
            break
        try:
            values = list(_floats(map(split, filter("\n".__ne__, lines)), x_col))
        except (ValueError, IndexError):
            break
        yield values
    else:
        return
    yield _floats(_csv_rows(chain(lines, fh)), x_col)


def read_csv(source: Union[str, Path, IO[str]], header: Optional[bool] = None) -> Series:
    """Read a series from CSV.

    Accepts either a single numeric column of X values or the export format
    written by :func:`write_csv` (the column named ``x`` is used).  With
    ``header=None`` a header line is auto-detected by a non-numeric first
    token.  Non-finite values (nan, inf), bytes that the text encoding
    cannot decode and rows the CSV parser rejects (such as a field longer
    than its limit of 131072 characters) raise DomainError.  A path is read
    as UTF-8 text.  Latent sequences are never attached to
    ingested data.  Rows are parsed as they are read, so only the x values
    are held in memory.

    The first non-blank row goes through the csv module.  The rest is read
    in chunks of whole lines, about ``_READ_CHUNK`` characters each.  A
    chunk takes the split path when it holds no quote, carriage return or
    NUL and no line longer than the csv module's field limit, as every file
    :func:`write_csv` writes: each line's field is ``float`` of its part
    between commas, the value the csv module gives, with fewer strings
    built per row.  From the first chunk that does not qualify, or in which
    a field does not parse, the csv module reads the rest of the source,
    starting at that chunk's first line.  A quoted field may run over line
    breaks into the next chunk, and the csv module alone knows quoting, the
    blank-row rule and the error messages, so every input reads as it did
    before the split path, with one exception: undecodable bytes less than
    a chunk after a row that does not parse may be the error reported.
    """
    own = isinstance(source, (str, Path))
    fh = open(source, "r", newline="", encoding="utf-8") if own else source
    try:
        first = next(_csv_rows(fh), None)
        if first is None:
            raise InvalidLength("empty CSV input")

        has_header = header
        if has_header is None:
            has_header = not _is_number(first[0].strip())
        x_col = 0
        if has_header:
            names = [tok.strip().lower() for tok in first]
            if len(names) > 1:
                if "x" not in names:
                    raise DomainError(f"multi-column CSV without an 'x' column: {names}")
                x_col = names.index("x")
        elif len(first) > 1:
            raise DomainError("multi-column CSV requires a header naming the 'x' column")

        head = [] if has_header else [first]
        try:
            chunks = chain([_floats(head, x_col)], _column_chunks(fh, x_col))
            x = np.fromiter(chain.from_iterable(chunks), dtype=np.float64)
        except UnicodeDecodeError:
            raise  # undecodable bytes are not a non-numeric value; reported below
        except (ValueError, IndexError) as exc:
            raise DomainError(f"non-numeric value in CSV column {x_col}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # raised by whichever read decodes the bad bytes: the first row or any later one
        bad_bytes = exc.object[exc.start : exc.end].hex()
        raise DomainError(f"CSV input is not valid {exc.encoding} text ({exc.reason}: 0x{bad_bytes})") from exc
    except csv.Error as exc:
        raise DomainError(f"malformed CSV input: {exc}") from exc
    finally:
        if own:
            fh.close()
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise DomainError(f"non-finite value {x[bad[0]]} in CSV column {x_col}, data row {bad[0]}")
    return Series(x=x)
