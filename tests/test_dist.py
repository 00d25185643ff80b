import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from dwlab.dist import chi2_cdf1, chi2_quantile1, chi2_sf1, ks_statistic, normal_cdf
from dwlab.errors import DomainError, EmptySample
from dwlab.model import make_rng


class TestNormalCdf:
    def test_symmetry_point(self):
        assert normal_cdf(0.0) == 0.5

    def test_tail(self):
        assert normal_cdf(10.0) >= 1.0 - 1e-15
        assert normal_cdf(-10.0) <= 1e-15

    def test_quantile_value(self):
        assert abs(normal_cdf(1.959964) - 0.975) <= 1e-6

    @given(st.floats(min_value=-8.0, max_value=8.0))
    def test_reflection(self, x):
        assert abs(normal_cdf(x) + normal_cdf(-x) - 1.0) <= 1e-15

    def test_against_scipy(self):
        xs = np.linspace(-8.0, 8.0, 2001)
        ours = np.array([normal_cdf(float(v)) for v in xs])
        assert np.max(np.abs(ours - scipy.stats.norm.cdf(xs))) <= 1e-13

    def test_monotone_on_grid(self):
        xs = np.linspace(-10.0, 10.0, 10_001)
        vals = np.array([normal_cdf(float(v)) for v in xs])
        assert np.all(np.diff(vals) >= 0.0)


class TestChiSquare:
    def test_cdf_at_zero(self):
        assert chi2_cdf1(0.0) == 0.0

    def test_cdf_domain(self):
        with pytest.raises(DomainError):
            chi2_cdf1(-0.5)

    def test_quantile_value(self):
        assert abs(chi2_quantile1(0.95) - 3.841459) <= 1e-5

    def test_quantile_matches_closed_form(self):
        for p in (0.5, 0.9, 0.95, 0.99, 0.999):
            assert abs(chi2_quantile1(p) / scipy.stats.chi2.ppf(p, df=1) - 1.0) <= 1e-13

    def test_upper_tail_does_not_underflow(self):
        # 1 - chi2_cdf1(80) rounds to 0; the true tail is about 3.7e-19
        assert 1.0 - chi2_cdf1(80.0) == 0.0
        assert abs(chi2_sf1(80.0) / scipy.stats.chi2.sf(80.0, df=1) - 1.0) <= 1e-12
        xs = np.linspace(0.0, 30.0, 301)
        ours = np.array([chi2_sf1(float(v)) for v in xs])
        assert np.max(np.abs(ours - scipy.stats.chi2.sf(xs, df=1))) <= 1e-12

    def test_upper_tail_domain(self):
        for bad in (-0.5, float("nan")):
            with pytest.raises(DomainError):
                chi2_sf1(bad)

    def test_quantile_domain(self):
        for p in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                chi2_quantile1(p)

    def test_round_trips(self):
        for p in np.arange(0.01, 1.0, 0.01):
            assert abs(chi2_cdf1(chi2_quantile1(float(p))) - p) <= 1e-10

    def test_against_scipy(self):
        xs = np.linspace(0.0, 30.0, 3001)
        ours = np.array([chi2_cdf1(float(v)) for v in xs])
        assert np.max(np.abs(ours - scipy.stats.chi2.cdf(xs, df=1))) <= 1e-12
        for p in (0.01, 0.1, 0.5, 0.9, 0.95, 0.99):
            assert abs(chi2_quantile1(p) - scipy.stats.chi2.ppf(p, df=1)) <= 1e-9

    def test_monotone_on_grid(self):
        xs = np.linspace(0.0, 40.0, 10_001)
        vals = np.array([chi2_cdf1(float(v)) for v in xs])
        assert np.all(np.diff(vals) >= 0.0)


class TestKs:
    def test_single_point_at_median(self):
        r = ks_statistic([0.0], normal_cdf)
        assert r.statistic == 0.5
        assert r.n == 1

    def test_sample_from_the_reference_law(self):
        rng = make_rng(314)
        sample = rng.standard_normal(2000)
        r = ks_statistic(sample, normal_cdf)
        # 99th percentile of the KS law at n = 2000
        assert r.statistic <= 1.63 / np.sqrt(2000)

    def test_shifted_sample_is_detected(self):
        rng = make_rng(315)
        sample = rng.standard_normal(2000) + 1.0
        r = ks_statistic(sample, normal_cdf)
        # sup_x |Phi(x) - Phi(x - 1)| is about 0.38
        assert r.statistic >= 0.3

    def test_statistic_range(self):
        rng = make_rng(316)
        for n in (1, 2, 17, 400):
            r = ks_statistic(rng.uniform(-3, 3, n), normal_cdf)
            assert 0.0 <= r.statistic <= 1.0

    def test_unsorted_input_is_sorted(self):
        a = ks_statistic([1.0, -1.0, 0.0], normal_cdf)
        b = ks_statistic([-1.0, 0.0, 1.0], normal_cdf)
        assert a == b

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            ks_statistic([], normal_cdf)
