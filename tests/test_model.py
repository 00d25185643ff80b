import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwlab import limits
from dwlab.errors import DomainError, InvalidLength, OutOfRegion
from dwlab.model import (
    MAX_LENGTH,
    ModelParams,
    NoiseSpec,
    Series,
    read_csv,
    read_csv_text,
    simulate,
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


class TestValidation:
    def test_interior_point_ok(self):
        validate_params(ModelParams(theta=0.5, rho=0.3, sigma2=1.0))

    def test_boundary_theta_rejected(self):
        with pytest.raises(OutOfRegion) as exc:
            validate_params(ModelParams(theta=1.0, rho=0.3, sigma2=1.0))
        assert exc.value.field == "theta"

    def test_degenerate_noise_rejected(self):
        with pytest.raises(OutOfRegion) as exc:
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
        with pytest.raises(OutOfRegion):
            NoiseSpec(kind="gaussian", sigma2=0.0)

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
        noise = NoiseSpec(kind=kind, sigma2=p.sigma2)
        a = simulate(p, noise, 50, seed)
        b = simulate(p, noise, 50, seed)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.eps, b.eps)
        assert np.array_equal(a.v, b.v)

    @given(params_st, kind_st, seed_st)
    @settings(max_examples=40, deadline=None)
    def test_recurrences_hold_exactly(self, p, kind, seed):
        noise = NoiseSpec(kind=kind, sigma2=p.sigma2)
        s = simulate(p, noise, 300, seed)
        assert np.array_equal(s.x[1:], p.theta * s.x[:-1] + s.eps[1:])
        assert np.array_equal(s.eps[1:], p.rho * s.eps[:-1] + s.v)

    @given(params_st, kind_st, seed_st)
    @settings(max_examples=40, deadline=None)
    def test_second_order_form(self, p, kind, seed):
        # eliminating eps gives X_k = (theta+rho) X_{k-1} - theta rho X_{k-2} + V_k
        s = simulate(p, NoiseSpec(kind=kind, sigma2=p.sigma2), 300, seed)
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
            a = simulate(base, NoiseSpec(kind=kind, sigma2=1.0), 500, 11)
            b = simulate(scaled, NoiseSpec(kind=kind, sigma2=4.0), 500, 11)
            assert np.array_equal(b.x, 2.0 * a.x)

    def test_scale_equivariance_general(self):
        c = 1.7
        a = simulate(ModelParams(theta=0.5, rho=0.3, sigma2=1.0), NoiseSpec(sigma2=1.0), 500, 12)
        b = simulate(
            ModelParams(theta=0.5, rho=0.3, sigma2=c * c), NoiseSpec(sigma2=c * c), 500, 12
        )
        # sqrt(c^2) differs from c by one rounding, so compare to the path scale
        assert np.max(np.abs(b.x - c * a.x)) <= 1e-12 * c * np.max(np.abs(a.x))

    def test_mean_square_approaches_limit(self):
        p = ModelParams(theta=0.5, rho=0.3, sigma2=1.0)
        s = simulate(p, NoiseSpec(sigma2=1.0), 10**6, 2024)
        mean_sq = float(np.sum(s.x[1:] ** 2)) / 10**6
        target = limits.ell(0.5, 0.3, 1.0)
        assert abs(mean_sq - target) <= 0.01 * target

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
            NoiseSpec(kind=kind, sigma2=sigma2),
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
            NoiseSpec(kind="rademacher", sigma2=sigma2),
            1000,
            5,
        )
        assert set(np.unique(s.v)) == {-2.0, 2.0}


class TestCsv:
    def test_round_trip_is_bitwise(self, tmp_path):
        s = simulate(ModelParams(theta=0.5, rho=0.3), NoiseSpec(), 250, 77)
        dest = tmp_path / "series.csv"
        write_csv(s, dest)
        back = read_csv(dest)
        assert np.array_equal(back.x, s.x)
        assert back.eps is None and back.v is None

    def test_single_column_without_header(self):
        s = read_csv_text("1.5\n-0.25\n3.0\n")
        assert np.array_equal(s.x, [1.5, -0.25, 3.0])

    def test_single_column_with_header(self):
        s = read_csv_text("x\n1.0\n2.0\n")
        assert np.array_equal(s.x, [1.0, 2.0])

    def test_explicit_header_flag(self):
        with pytest.raises(DomainError):
            # first row forced to be data but is not numeric
            read_csv_text("x\n1.0\n2.0\n", header=False)

    def test_multi_column_requires_x(self):
        with pytest.raises(DomainError):
            read_csv_text("a,b\n1,2\n3,4\n")
        with pytest.raises(DomainError):
            read_csv_text("1,2\n3,4\n")

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
            read_csv_text("")

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

    def test_blank_rows_quotes_and_float_forms(self):
        text = 'x\n"1.5"\n   \n,\n 2_000 \n\n-0.25e-3\n'
        s = read_csv_text(text)
        assert s.x.tolist() == [1.5, 2000.0, -0.00025]
        with pytest.raises(DomainError, match="column 0"):
            read_csv_text("x\n1.0\nabc\n")
        with pytest.raises(DomainError, match="column 1"):
            read_csv_text("k,x\n0,1.0\n1\n")
