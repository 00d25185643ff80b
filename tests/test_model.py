import csv
import io
import math
import tracemalloc
from itertools import chain
from operator import itemgetter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwlab import limits, model
from dwlab.errors import DomainError, InvalidLength, OutOfRegion
from dwlab.model import (
    MAX_LENGTH,
    ModelParams,
    NoiseSpec,
    Series,
    make_rng,
    read_csv,
    simulate,
    simulate_paths,
    validate_params,
    write_csv,
)

params_st = st.builds(
    ModelParams,
    theta=st.floats(min_value=-0.9, max_value=0.9),
    rho=st.floats(min_value=-0.9, max_value=0.9),
    sigma2=st.floats(min_value=0.1, max_value=4.0),
    x0=st.floats(min_value=-2.0, max_value=2.0),
    eps0=st.floats(min_value=-2.0, max_value=2.0),
)
kind_st = st.sampled_from(("gaussian", "uniform", "rademacher"))
seed_st = st.integers(min_value=0, max_value=2**64 - 1)


def _reference_path(p, noise, n, seed):
    """One path with one-dimensional lfilter calls, as simulate drew it before paths came in blocks."""
    from scipy.signal import lfilter

    v = noise.sample(n, make_rng(seed), p.sigma2)
    eps = np.concatenate([[p.eps0], lfilter([1.0], [1.0, -p.rho], v, zi=np.array([p.rho * p.eps0]))[0]])
    x = np.concatenate([[p.x0], lfilter([1.0], [1.0, -p.theta], eps[1:], zi=np.array([p.theta * p.x0]))[0]])
    return x, eps, v


def _reference_block(p, noise, n, seeds):
    """A block with lfilter along its rows: V, then eps and X each from its initial value, as five arrays."""
    from scipy.signal import lfilter

    v = np.array([noise.sample(n, make_rng(seed), p.sigma2) for seed in seeds])
    eps = np.empty((len(seeds), n + 1))
    eps[:, 0] = p.eps0
    eps[:, 1:] = lfilter([1.0], [1.0, -p.rho], v, zi=np.full((len(seeds), 1), p.rho * p.eps0))[0]
    x = np.empty((len(seeds), n + 1))
    x[:, 0] = p.x0
    x[:, 1:] = lfilter([1.0], [1.0, -p.theta], eps[:, 1:], zi=np.full((len(seeds), 1), p.theta * p.x0))[0]
    return x, eps, v


class TestValidation:
    def test_interior_point_ok(self):
        validate_params(ModelParams(theta=0.5, rho=0.3, sigma2=1.0))

    def test_boundary_theta_rejected(self):
        with pytest.raises(OutOfRegion) as exc:
            validate_params(ModelParams(theta=1.0, rho=0.3, sigma2=1.0))
        assert exc.value.field == "theta"

    def test_degenerate_noise_rejected(self):
        with pytest.raises(OutOfRegion, match="^noise variance must be positive and finite$") as exc:
            validate_params(ModelParams(theta=0.5, rho=0.3, sigma2=0.0))
        assert exc.value.field == "sigma2"

    def test_rho_and_initials(self):
        with pytest.raises(OutOfRegion):
            validate_params(ModelParams(theta=0.5, rho=-1.0))
        with pytest.raises(OutOfRegion):
            validate_params(ModelParams(theta=0.5, rho=0.3, x0=float("nan")))

    def test_noise_spec_validation(self):
        with pytest.raises(DomainError):
            NoiseSpec(kind="cauchy")

    def test_seed_validation(self):
        p = ModelParams(theta=0.5, rho=0.3)
        noise = NoiseSpec()
        with pytest.raises(DomainError):
            simulate(p, noise, 10, -1)
        with pytest.raises(DomainError):
            simulate(p, noise, 10, 2**64)

    def test_length_validation(self):
        p = ModelParams(theta=0.5, rho=0.3)
        with pytest.raises(InvalidLength):
            simulate(p, NoiseSpec(), 1, 0)
        with pytest.raises(InvalidLength):
            simulate(p, NoiseSpec(), MAX_LENGTH + 1, 0)

    def test_series_needs_two_points(self):
        with pytest.raises(InvalidLength):
            Series(x=np.array([1.0]))

    def test_latent_lengths_must_match_x(self):
        # write_csv pairs the columns row by row, so a short one must not get this far
        x = np.arange(5.0)
        Series(x=x, eps=np.zeros(5), v=np.zeros(4))
        for kwargs in ({"eps": np.zeros(4)}, {"eps": np.zeros(6)}, {"v": np.zeros(5)}, {"v": np.zeros((2, 2))}):
            with pytest.raises(InvalidLength):
                Series(x=x, **kwargs)


class TestSimulate:
    def test_white_noise_collapse(self):
        # theta = rho = 0 with zero initial values leaves X_k = V_k
        p = ModelParams(theta=0.0, rho=0.0)
        s = simulate(p, NoiseSpec(), 100, 3)
        assert np.array_equal(s.x[1:], s.v)
        assert np.array_equal(s.eps[1:], s.v)

    def test_rho_zero_makes_eps_equal_v(self):
        p = ModelParams(theta=0.5, rho=0.0)
        s = simulate(p, NoiseSpec(), 200, 4)
        assert np.array_equal(s.eps[1:], s.v)

    @given(params_st, kind_st, seed_st)
    @settings(max_examples=40, deadline=None)
    def test_reproducibility(self, p, kind, seed):
        noise = NoiseSpec(kind=kind)
        a = simulate(p, noise, 50, seed)
        b = simulate(p, noise, 50, seed)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.eps, b.eps)
        assert np.array_equal(a.v, b.v)

    @given(params_st, kind_st, seed_st)
    @settings(max_examples=40, deadline=None)
    def test_recurrences_hold_exactly(self, p, kind, seed):
        noise = NoiseSpec(kind=kind)
        s = simulate(p, noise, 300, seed)
        assert np.array_equal(s.x[1:], p.theta * s.x[:-1] + s.eps[1:])
        assert np.array_equal(s.eps[1:], p.rho * s.eps[:-1] + s.v)

    @given(params_st, kind_st, seed_st)
    @settings(max_examples=40, deadline=None)
    def test_second_order_form(self, p, kind, seed):
        # eliminating eps gives X_k = (theta+rho) X_{k-1} - theta rho X_{k-2} + V_k
        s = simulate(p, NoiseSpec(kind=kind), 300, seed)
        x = s.x
        rebuilt = (p.theta + p.rho) * x[1:-1] - p.theta * p.rho * x[:-2] + s.v[1:]
        err = np.abs(x[2:] - rebuilt)
        scale = np.maximum(1.0, np.abs(x[2:]))
        assert np.all(err <= 1e-10 * scale)

    def test_scale_equivariance_power_of_two(self):
        # quadrupling the variance scales the noise by 2, hence the path by 2,
        # exactly in floating point
        base = ModelParams(theta=0.5, rho=0.3, sigma2=1.0)
        scaled = ModelParams(theta=0.5, rho=0.3, sigma2=4.0)
        for kind in ("gaussian", "uniform", "rademacher"):
            a = simulate(base, NoiseSpec(kind=kind), 500, 11)
            b = simulate(scaled, NoiseSpec(kind=kind), 500, 11)
            assert np.array_equal(b.x, 2.0 * a.x)

    def test_scale_equivariance_general(self):
        c = 1.7
        a = simulate(ModelParams(theta=0.5, rho=0.3, sigma2=1.0), NoiseSpec(), 500, 12)
        b = simulate(
            ModelParams(theta=0.5, rho=0.3, sigma2=c * c), NoiseSpec(), 500, 12
        )
        # sqrt(c^2) differs from c by one rounding, so compare to the path scale
        assert np.max(np.abs(b.x - c * a.x)) <= 1e-12 * c * np.max(np.abs(a.x))

    def test_mean_square_approaches_limit(self):
        p = ModelParams(theta=0.5, rho=0.3, sigma2=1.0)
        s = simulate(p, NoiseSpec(), 10**6, 2024)
        mean_sq = float(np.sum(s.x[1:] ** 2)) / 10**6
        target = limits.ell(0.5, 0.3, 1.0)
        assert abs(mean_sq - target) <= 0.01 * target

    @given(params_st, kind_st, st.lists(seed_st, min_size=1, max_size=5), st.sampled_from([2, 3, 127, 1001]))
    @settings(max_examples=40, deadline=None)
    def test_block_rows_are_the_single_paths(self, p, kind, seeds, n):
        noise = NoiseSpec(kind=kind)
        x = simulate_paths(p, noise, n, seeds)
        assert x.shape == (len(seeds), n + 1)
        for i, seed in enumerate(seeds):
            ref = _reference_path(p, noise, n, seed)
            one = simulate(p, noise, n, seed)
            assert x[i].tobytes() == one.x.tobytes() == ref[0].tobytes()
            assert one.eps.tobytes() == ref[1].tobytes() and one.v.tobytes() == ref[2].tobytes()
            assert np.array_equal(x[i, 1:], p.theta * x[i, :-1] + one.eps[1:])
            assert np.array_equal(one.eps[1:], p.rho * one.eps[:-1] + one.v)

    @given(
        st.floats(min_value=-0.99, max_value=0.99),
        st.floats(min_value=-0.99, max_value=0.99),
        st.one_of(st.just(1.0), st.floats(min_value=0.01, max_value=9.0).filter(lambda s: s != 1.0)),
        st.sampled_from([(0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0), (0.7, -0.2), (1e10, -3.0)]),
        kind_st,
        st.lists(seed_st, min_size=1, max_size=5),
        st.sampled_from([2, 3, 127, 1001, 2**15 + 3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_paths_and_latents_are_the_lfilter_block(self, theta, rho, sigma2, initial, kind, seeds, n):
        # the bit-identity oracle: scipy's public lfilter, run along the rows of a five-array block
        p = ModelParams(theta=theta, rho=rho, sigma2=sigma2, x0=initial[0], eps0=initial[1])
        x, eps, v = _reference_block(p, NoiseSpec(kind), n, seeds)
        got = simulate_paths(p, NoiseSpec(kind), n, seeds)
        assert got.shape == x.shape and got.tobytes() == x.tobytes()
        for i, seed in enumerate(seeds):
            one = simulate(p, NoiseSpec(kind), n, seed)
            for a, want in ((one.x, x[i]), (one.eps, eps[i]), (one.v, v[i])):
                assert a.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["gaussian", "uniform", "rademacher"])
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("x0, eps0", [(0.0, 0.0), (-0.0, -0.0), (0.7, -0.2), (1e10, -3.0)])
    def test_zero_and_unit_poles_are_the_lfilter_block(self, kind, rows, x0, eps0):
        # poles at 0 and near +-1, where a section's states carry signed zeros or large values
        seeds = [41, 2**64 - 1, 0][:rows]
        for theta, rho in [(0.0, 0.0), (0.99, -0.99), (-0.99, 0.99), (0.5, 0.0), (0.0, -0.3), (-0.99, -0.99)]:
            p = ModelParams(theta=theta, rho=rho, sigma2=1.7, x0=x0, eps0=eps0)
            x, eps, v = _reference_block(p, NoiseSpec(kind), 301, seeds)
            got = simulate_paths(p, NoiseSpec(kind), 301, seeds)
            assert got.shape == x.shape and got.tobytes() == x.tobytes(), (theta, rho)
            one = simulate(p, NoiseSpec(kind), 301, seeds[-1])
            assert (one.x.tobytes(), one.eps.tobytes(), one.v.tobytes()) == (
                x[-1].tobytes(), eps[-1].tobytes(), v[-1].tobytes()), (theta, rho)

    def test_block_holds_only_x(self):
        # V is drawn into x and both recursions run over it in place; V, eps and X as three arrays peaked near 3x
        simulate_paths(ModelParams(theta=0.5, rho=0.3), NoiseSpec(), 2, [7])  # loads numpy.random and the loop
        for seeds in ([7], [7, 8, 9]):
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                x = simulate_paths(ModelParams(theta=0.5, rho=0.3), NoiseSpec(), 10**5, seeds)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak <= 1.2 * x.nbytes

    def test_block_is_validated_like_one_path(self):
        with pytest.raises(InvalidLength):
            simulate_paths(ModelParams(theta=0.2, rho=0.1), NoiseSpec(), 1, [1, 2])
        with pytest.raises(OutOfRegion):
            simulate_paths(ModelParams(theta=1.0, rho=0.1), NoiseSpec(), 10, [1, 2])
        with pytest.raises(DomainError):
            simulate_paths(ModelParams(theta=0.2, rho=0.1), NoiseSpec(), 10, [1, -2])

    def test_arrays_are_read_only(self):
        s = simulate(ModelParams(theta=0.2, rho=0.1), NoiseSpec(), 10, 0)
        with pytest.raises(ValueError):
            s.x[0] = 1.0


class TestNoiseKinds:
    @pytest.mark.parametrize("kind", ["gaussian", "uniform", "rademacher"])
    def test_moments(self, kind):
        sigma2 = 2.5
        s = simulate(
            ModelParams(theta=0.0, rho=0.0, sigma2=sigma2),
            NoiseSpec(kind=kind),
            100_000,
            99,
        )
        assert abs(np.mean(s.v)) <= 0.05
        assert abs(np.var(s.v) - sigma2) <= 0.05 * sigma2
        assert np.isfinite(np.mean(s.v**4))

    def test_rademacher_support(self):
        sigma2 = 4.0
        s = simulate(
            ModelParams(theta=0.0, rho=0.0, sigma2=sigma2),
            NoiseSpec(kind="rademacher"),
            1000,
            5,
        )
        assert set(np.unique(s.v)) == {-2.0, 2.0}

    @pytest.mark.parametrize("kind", ["gaussian", "uniform", "rademacher"])
    @pytest.mark.parametrize("sigma2", [2.0, 1.0, 0.37, 1e-3])
    def test_draws_are_the_allocating_formulas(self, kind, sigma2):
        # the rows of a block are drawn in place; these are the formulas that allocate each draw
        n, seeds = 5000, [3, 2**64 - 1]
        sd, half = math.sqrt(sigma2), math.sqrt(3.0 * sigma2)
        formulas = {
            "gaussian": lambda rng: rng.standard_normal(n) * sd,
            "uniform": lambda rng: rng.uniform(-half, half, n),
            "rademacher": lambda rng: (2.0 * rng.integers(0, 2, size=n) - 1.0) * sd,
        }
        p = ModelParams(theta=0.5, rho=0.3, sigma2=sigma2)
        for seed in seeds:
            expected = formulas[kind](make_rng(seed)).tobytes()
            assert simulate(p, NoiseSpec(kind), n, seed).v.tobytes() == expected
            assert NoiseSpec(kind).sample(n, make_rng(seed), sigma2).tobytes() == expected


class TestCsv:
    def test_round_trip_is_bitwise(self, tmp_path):
        s = simulate(ModelParams(theta=0.5, rho=0.3), NoiseSpec(), 250, 77)
        dest = tmp_path / "series.csv"
        write_csv(s, dest)
        back = read_csv(dest)
        assert np.array_equal(back.x, s.x)
        assert back.eps is None and back.v is None

    def test_single_column_without_header(self):
        s = read_csv(io.StringIO("1.5\n-0.25\n3.0\n"))
        assert np.array_equal(s.x, [1.5, -0.25, 3.0])

    def test_single_column_with_header(self):
        s = read_csv(io.StringIO("x\n1.0\n2.0\n"))
        assert np.array_equal(s.x, [1.0, 2.0])

    def test_explicit_header_flag(self):
        with pytest.raises(DomainError):
            # first row forced to be data but is not numeric
            read_csv(io.StringIO("x\n1.0\n2.0\n"), header=False)

    def test_multi_column_requires_x(self):
        with pytest.raises(DomainError):
            read_csv(io.StringIO("a,b\n1,2\n3,4\n"))
        with pytest.raises(DomainError):
            read_csv(io.StringIO("1,2\n3,4\n"))

    def test_export_format(self):
        s = simulate(ModelParams(theta=0.1, rho=0.2), NoiseSpec(), 3, 1)
        buf = io.StringIO()
        write_csv(s, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "k,x,eps,v"
        assert len(lines) == 5
        assert lines[1].split(",")[3] == ""  # no V_0

    def test_empty_input(self):
        with pytest.raises(InvalidLength):
            read_csv(io.StringIO(""))

    @staticmethod
    def _reference_csv(series: Series) -> str:
        # the row-by-row csv.writer export that write_csv must reproduce byte for byte
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(("k", "x", "eps", "v"))
        eps, v = series.eps, series.v
        for k in range(series.x.size):
            w.writerow([
                k,
                repr(float(series.x[k])),
                repr(float(eps[k])) if eps is not None else "",
                repr(float(v[k - 1])) if (v is not None and k >= 1) else "",
            ])
        return buf.getvalue()

    def test_export_matches_csv_writer_bytes(self, tmp_path):
        full = simulate(ModelParams(theta=-0.7, rho=0.4, x0=1e-300, eps0=-3.5), NoiseSpec("uniform"), 2000, 13)
        bare = Series(x=full.x)
        eps_only = Series(x=full.x, eps=full.eps)
        for series in (full, bare, eps_only):
            buf = io.StringIO()
            write_csv(series, buf)
            assert buf.getvalue() == self._reference_csv(series)
            dest = tmp_path / "s.csv"
            write_csv(series, dest)
            assert dest.read_bytes() == self._reference_csv(series).encode()

    @pytest.mark.parametrize("rows", [1, 7, 2000, 2001])
    def test_export_bytes_do_not_depend_on_the_chunk(self, monkeypatch, rows):
        # 2001 rows: one chunk, or one chunk and a row; 1 and 7: many chunks and a partial one
        monkeypatch.setattr(model, "_ROWS_PER_WRITE", rows)
        full = simulate(ModelParams(theta=0.6, rho=-0.2, x0=0.3, eps0=1.5), NoiseSpec(), 2000, 21)
        for series in (full, Series(x=full.x)):
            buf = io.StringIO()
            write_csv(series, buf)
            assert buf.getvalue() == self._reference_csv(series)

    def test_blank_rows_quotes_and_float_forms(self):
        text = 'x\n"1.5"\n   \n,\n 2_000 \n\n-0.25e-3\n'
        s = read_csv(io.StringIO(text))
        assert s.x.tolist() == [1.5, 2000.0, -0.00025]
        with pytest.raises(DomainError, match="column 0"):
            read_csv(io.StringIO("x\n1.0\nabc\n"))
        with pytest.raises(DomainError, match="column 1"):
            read_csv(io.StringIO("k,x\n0,1.0\n1\n"))

    def test_undecodable_bytes_are_not_a_non_numeric_value(self):
        # in the first row the bytes are decoded with the header; past the first
        # buffer they are decoded while the values are parsed
        for data in (b"\xff\n0.5\n", b"x\n" + b"0.5\n" * 5000 + b"\xff\n1.0\n"):
            with pytest.raises(DomainError, match=r"not valid utf-8 text \(invalid start byte: 0xff\)"):
                read_csv(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))

    def test_over_long_field_is_a_data_error(self, tmp_path):
        # the csv module refuses a field over 131072 characters
        src = tmp_path / "long_field.csv"
        src.write_text("x\n" + "1" * 200_000 + "\n0.5\n")
        with pytest.raises(DomainError, match=r"^malformed CSV input: field larger than field limit \(131072\)$"):
            read_csv(src)

    def test_read_holds_only_the_parsed_values(self, tmp_path):
        # keeping every parsed row of the export (four strings each) would peak near 50 x.nbytes
        series = simulate(ModelParams(theta=0.5, rho=0.3), NoiseSpec(), 10**5, 8)
        dest = tmp_path / "long.csv"
        write_csv(series, dest)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            back = read_csv(dest)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.x, series.x)
        assert peak <= 4 * back.x.nbytes

    def test_write_holds_only_a_chunk_of_rows(self, tmp_path):
        # building the whole text before one write peaked near 35 x.nbytes
        series = simulate(ModelParams(theta=0.5, rho=0.3), NoiseSpec(), 10**5, 8)
        dest = tmp_path / "long.csv"
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            write_csv(series, dest)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert dest.read_bytes() == self._reference_csv(series).encode()
        assert peak <= 3 * series.x.nbytes


def _reference_is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _reference_read_csv(source, header=None) -> Series:
    """read_csv as it was before its split path: every row through the csv module."""
    own = isinstance(source, (str, Path))
    fh = open(source, "r", newline="", encoding="utf-8") if own else source
    try:
        rows = (row for row in csv.reader(fh) if "".join(row).strip())
        first = next(rows, None)
        if first is None:
            raise InvalidLength("empty CSV input")

        has_header = header
        if has_header is None:
            has_header = not _reference_is_number(first[0].strip())
        x_col = 0
        if has_header:
            names = [tok.strip().lower() for tok in first]
            if len(names) > 1:
                if "x" not in names:
                    raise DomainError(f"multi-column CSV without an 'x' column: {names}")
                x_col = names.index("x")
        elif len(first) > 1:
            raise DomainError("multi-column CSV requires a header naming the 'x' column")
        else:
            rows = chain([first], rows)

        try:
            x = np.fromiter(map(float, map(itemgetter(x_col), rows)), dtype=np.float64)
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


_NUMBER_CELLS = ["0.5", "-3", "1_000", " 2.5 ", "-0.0", "1e308", "2e-310", "17"]
_ODD_CELLS = ["nan", "inf", "abc", "", "  ", "\x1c", "1\x00", '"1.5"', '"3,5"', '"4\n5"', '"6\r"', '"7\r\n"']
_ODD_LINES = ["", "   ", ",", ",,,", "\t,  ", "1" * 200_000]
_HEADERS = [None, "x", "k,x,eps,v", " k , X ", "eps,x", "a,b"]


@st.composite
def csv_texts(draw):
    """CSV text that is mostly plain numeric rows, with every kind of row the csv module treats differently."""
    width = draw(st.sampled_from([1, 2, 4]))
    cell = st.sampled_from(_NUMBER_CELLS * 4 + _ODD_CELLS)
    row = st.lists(cell, min_size=width, max_size=width).map(",".join)
    short_row = st.lists(cell, min_size=1, max_size=max(width - 1, 1)).map(",".join)
    line = st.one_of(row, row, row, row, short_row, st.sampled_from(_ODD_LINES))
    lines = draw(st.lists(line, max_size=40))
    head = draw(st.sampled_from(_HEADERS))
    if head is not None:
        lines.insert(0, head)
    endings = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(map("".join, zip(lines, endings)))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line ending after the last row
    return text


def _outcome(read, source, header):
    """The bits of the x values read, or the class and message of what the read raised."""
    try:
        return read(source, header=header).x.tobytes()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("split_path") / "series.csv"


class TestReadCsvSplitPath:
    """read_csv gives the bits, or the error, of the reader that parsed every row with the csv module."""

    @pytest.mark.parametrize("chunk", [1, 7, 64, None])
    @settings(max_examples=150, deadline=None)
    @given(text=csv_texts(), header=st.sampled_from([None, True, False]))
    def test_same_values_or_error_as_the_csv_module(self, csv_path, chunk, text, header):
        csv_path.write_bytes(text.encode("utf-8"))
        sources = {
            "path": lambda: csv_path,
            "StringIO": lambda: io.StringIO(text),
            "stdin": lambda: io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8", newline=""),
            # lines that end at a carriage return only: a newline is then part of a line
            "CR lines": lambda: io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8", newline="\r"),
        }
        chunk_size = model._READ_CHUNK if chunk is None else chunk
        for name, source in sources.items():
            expected = _outcome(_reference_read_csv, source(), header)
            with mock.patch.object(model, "_READ_CHUNK", chunk_size):
                assert _outcome(read_csv, source(), header) == expected, name

    @pytest.mark.parametrize("column", [1, 2])
    def test_a_quoted_field_over_a_line_break(self, column):
        # the csv module joins the two lines into one row, in the x column or next to it
        s = simulate(ModelParams(theta=0.5, rho=0.3), NoiseSpec(), 300, 4)
        buf = io.StringIO()
        write_csv(s, buf)
        lines = buf.getvalue().splitlines(keepends=True)
        cells = lines[200].split(",")
        cells[column] = f'"{cells[column]}\n"'
        lines[200] = ",".join(cells)
        text = "".join(lines)
        assert _reference_read_csv(io.StringIO(text)).x.tobytes() == s.x.tobytes()
        for chunk in (7, 64, 4096, model._READ_CHUNK):
            with mock.patch.object(model, "_READ_CHUNK", chunk):
                assert read_csv(io.StringIO(text)).x.tobytes() == s.x.tobytes()
