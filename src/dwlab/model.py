"""Stochastic model and simulation.

The observed process is a first-order autoregression whose driving noise is
itself a first-order autoregression:

    X_k = theta * X_{k-1} + eps_k
    eps_k = rho * eps_{k-1} + V_k

with |theta| < 1, |rho| < 1 and (V_k) i.i.d. with mean zero, variance sigma2
and a finite fourth moment.  Simulation is exact: the recurrences above hold
bit for bit on the generated arrays.

:func:`simulate_paths` draws a block of paths stacked along a leading
axis, one Philox stream per row, and returns X alone; :func:`simulate`
draws one path and keeps eps and V as well.  They are the only users of
scipy.  Both recursions run in the compiled loop behind
``scipy.signal.sosfilt`` (``_sosfilt`` in scipy's ``signal/_sosfilt``
extension), one first-order section per recursion, which :func:`_sosfilt`
loads from its file on the first call.  That load runs scipy's package
init (13-21 ms and 0.9 MiB on a 2-core box), which the extension
imports, but never imports the ``scipy.signal`` package: that import
takes over a second and pulls in scipy.stats, scipy.interpolate and
scipy.optimize.  Commands that only read a series never load the
extension.  A block's V_1..V_n are drawn straight into X_1..X_n of each
row, and one pass of two sections turns them into eps and then X in
place, so the block is its only path-sized array.
"""

from __future__ import annotations

import csv
import importlib.machinery
import importlib.util
import math
import threading
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache
from itertools import chain, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from . import DEFAULT_SIGMA2, DEFAULT_START, NOISE_KINDS
from .errors import DomainError, InvalidLength, OutOfRegion
from .limits import check_sigma2

MAX_LENGTH = 2**31 - 1

_MASK64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class ModelParams:
    """Ground-truth parameter set (theta, rho, sigma2) plus initial values."""

    theta: float
    rho: float
    sigma2: float = DEFAULT_SIGMA2
    x0: float = DEFAULT_START
    eps0: float = DEFAULT_START


@dataclass(frozen=True)
class NoiseSpec:
    """Distribution of the i.i.d. innovations V_k; their variance is ``ModelParams.sigma2``.

    All kinds have mean zero, the variance ``sigma2`` passed to
    :meth:`sample` and a finite fourth moment:

    * ``gaussian``    N(0, sigma2)
    * ``uniform``     uniform on [-sqrt(3 sigma2), +sqrt(3 sigma2)]
    * ``rademacher``  +-sqrt(sigma2) with probability 1/2 each
    """

    kind: str = NOISE_KINDS[0]

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
            if sd != 1.0:  # x * 1.0 is x, bit for bit
                out *= sd
        elif self.kind == "uniform":
            half = math.sqrt(3.0 * sigma2)
            rng.random(out=out)
            out *= 2.0 * half
            out += -half
        else:  # rademacher
            np.multiply(rng.integers(0, 2, size=out.size), 2.0, out=out)
            out -= 1.0
            if sd != 1.0:
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


def simulate_paths(params: ModelParams, noise: NoiseSpec, n: int, seeds: Sequence[int]) -> np.ndarray:
    """Draw a block of paths X_0..X_n, row i from the stream ``make_rng(seeds[i])``.

    Returns the (B, n+1) array of X for B = len(seeds).  Each row is a
    deterministic function of (params, noise, n, seeds[i]) alone, bit for
    bit the ``x`` of :func:`simulate` for the same seed, so the defining
    recurrences hold exactly on it with that path's eps and V: recomputing
    theta*X_{k-1} + eps_k in float64 reproduces X_k bit for bit.  A row's
    V_1..V_n are drawn into X_1..X_n, and one in-place pass of scipy's
    second-order-section loop runs the rho section and then the theta
    section over them (:func:`_recursions`), so the block is the only
    path-sized array.  The rows share one generator, re-keyed per row for a tenth of a new one's cost.
    """
    _check_path(params, n)
    x = np.empty((len(seeds), n + 1))
    x[:, 0] = params.x0
    both = _recursions((params.rho, params.eps0), (params.theta, params.x0))
    rng = make_rng(0)
    start = rng.bit_generator.state
    for row, seed in zip(x, seeds):
        start["state"]["key"][0] = check_seed(seed)
        rng.bit_generator.state = start
        noise._draw_into(row[1:], rng, params.sigma2)
        both(row[1:])
    return x


def simulate(params: ModelParams, noise: NoiseSpec, n: int, seed: int) -> Series:
    """Draw X_0..X_n with the latent sequences attached.

    V comes from :meth:`NoiseSpec.sample`, and eps and X from one-section
    passes of the loop that :func:`simulate_paths` runs, so ``x`` is bit for
    bit the row that :func:`simulate_paths` draws from the same seed.
    """
    _check_path(params, n)
    v = noise.sample(n, make_rng(seed), params.sigma2)
    eps = np.concatenate(([params.eps0], v))
    _recursions((params.rho, params.eps0))(eps[1:])
    x = np.concatenate(([params.x0], eps[1:]))
    _recursions((params.theta, params.x0))(x[1:])
    return Series(x=x, eps=eps, v=v)


def _check_path(params: ModelParams, n: int) -> None:
    validate_params(params)
    if n < 2:
        raise InvalidLength(f"need n >= 2 steps, got {n}")
    if n > MAX_LENGTH:
        raise InvalidLength(f"n exceeds the supported maximum {MAX_LENGTH}")


def _recursions(*poles: tuple) -> Callable[[np.ndarray], None]:
    """The in-place pass that runs y_k = a*y_{k-1} + u_k, k = 1..n, for each pole (a, y_0) in turn.

    The returned function takes a contiguous row u_1..u_n and leaves y_1..y_n
    of the last pole in it; each pole's input is the output of the one
    before.  Each pole is one section (b0, b1, b2, a0, a1, a2) =
    (1, 0, 0, 1, -a, 0) of the loop behind ``scipy.signal.sosfilt``, whose
    states start at (a*y_0, 0).  Per step a section forms y = 1*u + z0,
    then z0 = (0*u - (-a)*y) + z1 and z1 = 0*u - 0*y: the products by 1
    and -1 are exact and the second state only ever adds a zero, so every
    y_k is fl(a*y_{k-1} + u_k), the rounding of a naive loop and of
    ``lfilter``, up to the sign of a y_k that is zero.
    """
    sos = np.array([(1.0, 0.0, 0.0, 1.0, -a, 0.0) for a, _ in poles])
    zi = np.array([[(a * y0, 0.0) for a, y0 in poles]])
    run = _sosfilt()
    return lambda u: run(sos, u[np.newaxis], zi.copy())


_LOADING = threading.Lock()


def _sosfilt():
    """``_sosfilt(sos, x, zi)`` from scipy's ``signal/_sosfilt`` extension; it filters x and zi in place.

    The extension is loaded from its file, found without running any scipy
    ``__init__``, so the ``scipy.signal`` package is never imported; the
    extension itself imports the ``scipy`` package.  The module is
    registered under its own name, so a later ``import scipy.signal`` by
    other code reuses it.  The file suffix comes from
    ``EXTENSION_SUFFIXES``, which is complete from interpreter start.  A
    second load of a Cython extension gets the module of the first, which
    stays empty until the first load ends, so the load is made under a lock
    and the first call may come from any thread.
    """
    with _LOADING:
        return _load_sosfilt()


@cache
def _load_sosfilt():
    name = "scipy.signal._sosfilt"
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    path = str(Path(scipy_dir, "signal", "_sosfilt" + importlib.machinery.EXTENSION_SUFFIXES[0]))
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_file_location(name, path, loader=loader))
    loader.exec_module(module)
    return module._sosfilt


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

CSV_HEADER = ("k", "x", "eps", "v")

_ROWS_PER_WRITE = 4096  # rows formatted and written per call; the time was flat from 10^3 to 10^5
_READ_CHUNK = 1 << 13  # characters of lines per np.loadtxt call; 64 KiB read 12% faster at a 4 MiB higher peak
# what leaves a chunk to the csv module, as non-ASCII text does: its quote, CR and NUL, and where
# np.loadtxt and float part: "1_0" is a number to float alone, \x1c-\x1f are spaces to np.loadtxt alone
_NOT_PLAIN = '"\r\0_\x1c\x1d\x1e\x1f'


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


def _csv_rows(lines: Iterable[str]) -> Iterator[list]:
    """The csv module's rows of ``lines``, without the blank ones (every field empty or whitespace)."""
    return (row for row in csv.reader(lines) if "".join(row).strip())


def _floats(rows: Iterable[Sequence[str]], col: int) -> Iterator[float]:
    return map(float, map(itemgetter(col), rows))


def _column_chunks(fh: IO[str], x_col: int) -> Iterator[Iterable[float]]:
    """The values of column ``x_col`` in the rest of ``fh``: a list per plain chunk of lines, then the csv module's.

    A plain chunk (see :func:`read_csv`) must also come as lines that each
    end at their one newline, which a source opened with ``newline="\\r"``
    does not give.  A chunk of whitespace alone, all blank rows to the csv
    module, is skipped, since ``np.loadtxt`` would warn that it holds no data.
    """
    limit = csv.field_size_limit()
    while lines := fh.readlines(_READ_CHUNK):
        text = "".join(lines)
        plain = (
            text.isascii() and not any(map(text.__contains__, _NOT_PLAIN))
            and text.count("\n") == len(lines) - (not text.endswith("\n"))
            and (len(text) <= limit or max(map(len, lines)) <= limit)
        )
        if not plain:
            break
        if text.isspace():
            continue
        try:
            values = np.loadtxt(lines, delimiter=",", usecols=x_col, comments=None, ndmin=1)
        except ValueError:
            break
        yield values.tolist()
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
    as UTF-8 text, and a byte-order mark that starts any source is dropped.
    Latent sequences are never attached to ingested data.  Rows are parsed
    as they are read, so only the x values are held in memory.

    The first non-blank row goes through the csv module.  The rest is read
    in chunks of whole lines, about ``_READ_CHUNK`` characters each.  A
    plain chunk is ASCII without any of ``_NOT_PLAIN`` and without a line
    longer than the csv module's field limit, as every file
    :func:`write_csv` writes; numpy's C parser, ``np.loadtxt``, reads its
    x column, and on such text accepts exactly the fields ``float``
    accepts, with the same bits.  From the first chunk that is not plain,
    or in which a field does not parse, the csv module reads the rest of
    the source, from that chunk's first line.  A quoted field may run over
    line breaks into the next chunk, and the csv module alone knows
    quoting, the blank-row rule and the error messages, so every input
    reads as the csv module alone reads it, except that undecodable bytes
    less than a chunk after a row that does not parse may be the error.
    """
    own = isinstance(source, (str, Path))
    fh = open(source, "r", newline="", encoding="utf-8") if own else source
    try:
        lines = chain([fh.readline().removeprefix("\ufeff")], fh)  # a UTF-8 byte-order mark is no data
        first = next(_csv_rows(lines), None)
        if first is None:
            raise InvalidLength("empty CSV input")

        if header is None:  # a header row starts with a token that is no number
            try:
                float(first[0].strip())
                header = False
            except ValueError:
                header = True
        x_col = 0
        if header:
            names = [tok.strip().lower() for tok in first]
            if len(names) > 1:
                if "x" not in names:
                    raise DomainError(f"multi-column CSV without an 'x' column: {names}")
                x_col = names.index("x")
        elif len(first) > 1:
            raise DomainError("multi-column CSV requires a header naming the 'x' column")

        head = [] if header else [first]
        try:
            chunks = chain([_floats(head, x_col)], _column_chunks(fh, x_col))
            x = np.fromiter(chain.from_iterable(chunks), dtype=np.float64)
        except UnicodeDecodeError:
            raise  # undecodable bytes are not a non-numeric value; reported below
        except IndexError:
            raise DomainError(f"a CSV row has no field in the x column (column {x_col})") from None
        except ValueError as exc:
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
