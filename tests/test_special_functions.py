import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import jn_zeros, jv

from mp_oracle import besselj as mp_besselj

from sobolev_mh import special_functions
from sobolev_mh.special_functions import bessel_j, bessel_j_zero, log_gamma

mp.mp.dps = 30


class TestLogGamma:
    def test_at_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_at_half(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    def test_against_stdlib_grid(self):
        # relative where ln Gamma is away from its zeros, absolute near them
        for x in np.concatenate([np.logspace(-8, 6, 300), np.linspace(0.6, 3.4, 200)]):
            ref = math.lgamma(x)
            assert abs(log_gamma(x) - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-2.5)

    @pytest.mark.parametrize("x", [0.31, 1.0, 3.1, 7.7, 40.0])
    def test_duplication_identity(self, x):
        # Gamma(2x) = Gamma(x) Gamma(x+1/2) / (2^(1-2x) sqrt(pi))
        lhs = log_gamma(2.0 * x)
        rhs = (log_gamma(x) + log_gamma(x + 0.5)
               - (1.0 - 2.0 * x) * math.log(2.0) - 0.5 * math.log(math.pi))
        assert abs(math.expm1(lhs - rhs)) <= 1e-12


class TestBesselJ:
    def test_order_zero_origin(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(2.5, 0.0) == 0.0

    def test_half_order_closed_form(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x, across both evaluation branches
        assert abs(bessel_j(0.5, math.pi)) <= 1e-12
        for x in (0.3, 2.0, 9.0, 13.0, 16.0, 31.0, 74.0, 99.5):
            ref = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
            assert bessel_j(0.5, x) == pytest.approx(ref, abs=1e-13)
            ref32 = math.sqrt(2.0 / (math.pi * x)) * (math.sin(x) / x - math.cos(x))
            assert bessel_j(1.5, x) == pytest.approx(ref32, abs=1e-13)

    def test_order3_near_first_zero(self):
        assert abs(bessel_j(3.0, 6.38016)) <= 1e-4

    @pytest.mark.parametrize("nu", [-0.9, -0.5, 0.0, 0.5, 1.0, 3.0, 5.5, 9.0, 12.0,
                                    3.5, 15.1, 24.1, 40.0, 60.0, 100.0, 150.0])
    def test_against_mpmath(self, nu):
        xs = np.concatenate([np.linspace(0.01, 20.0, 23),
                             np.linspace(21.0, max(100.0, 3.0 * nu), 47)])
        for x in xs:
            assert abs(bessel_j(nu, float(x)) - mp_besselj(nu, x)) <= 1e-14

    @pytest.mark.parametrize("nu", [100.0, 150.0, 160.0, 300.0])
    def test_pointwise_against_mpmath_at_high_order(self, nu):
        # relative below the turning point x = nu, where J_nu falls to 1e-31
        # at x = nu/2; absolute above it, where J_nu has zeros.  Normalized
        # at the order nu instead of nu - floor(nu), the sweep was 8e-8 off
        # near x = 105 for nu = 100, which a sup over x does not show
        xs = np.linspace(0.5 * nu, 1.3 * nu, 241)
        got = bessel_j(nu, xs)
        ref = np.array([mp_besselj(nu, x) for x in xs])
        below = xs < nu
        assert np.max(np.abs(got - ref)[below] / np.abs(ref[below])) <= 5e-14
        assert np.max(np.abs(got - ref)[~below]) <= 1e-15

    @pytest.mark.parametrize("nu", [20.0, 30.0, 40.0])
    def test_high_order_relative_error(self, nu):
        # J_nu is down to 1e-112 here: a series that stops on an absolute
        # floor instead of a relative one loses digits
        xs = np.linspace(0.05, 13.9, 120)
        got = bessel_j(nu, xs)
        ref = np.array([mp_besselj(nu, x) for x in xs])
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_j(-1.0, 1.0)
        with pytest.raises(ValueError):
            bessel_j(0.0, -0.1)

    @given(st.floats(-0.99, 10.0), st.floats(0.1, 50.0))
    @settings(max_examples=80, deadline=None)
    def test_three_term_relation(self, nu, x):
        resid = (bessel_j(nu, x) - (2.0 * (nu + 1.0) / x) * bessel_j(nu + 1.0, x)
                 + bessel_j(nu + 2.0, x))
        assert abs(resid) <= 1e-10


class TestBesselJArray:
    @pytest.mark.parametrize("nu", [-0.9, -0.25, 0.5, 2.1, 6.1, 15.1, 24.1, 40.0, 50.0])
    def test_against_scipy(self, nu):
        # the series and the backward sweep on either side of x = 2 sqrt(nu + 1)
        xs = np.linspace(0.01, 60.0, 6001)
        vals = bessel_j(nu, xs)
        assert np.max(np.abs(vals - jv(nu, xs))) <= 1e-12
        # a scalar argument takes the same path as one array element
        for k in range(0, 6001, 97):
            assert bessel_j(nu, float(xs[k])) == vals[k]

    def test_high_order_below_crossover(self):
        # an ascending series summed up to x = 1.4 nu cancelled here: 7.1e-11
        # at x = 33.63
        xs = np.linspace(30.0, 34.0, 401)
        assert np.max(np.abs(bessel_j(24.1, xs) - jv(24.1, xs))) <= 1e-12

    def test_shape_origin_and_domain(self):
        xs = np.array([[0.0, 1.0], [20.0, 3.0]])
        vals = bessel_j(0.0, xs)
        assert vals.shape == (2, 2)
        assert vals[0, 0] == 1.0 and vals[1, 0] == bessel_j(0.0, 20.0)
        assert isinstance(bessel_j(2.5, 0.0), float)
        assert np.isinf(bessel_j(-0.5, np.array([0.0, 1.0]))[0])
        with pytest.raises(ValueError):
            bessel_j(1.0, np.array([1.0, -1e-9]))


def test_z_skips_the_sweep_where_the_power_underflows(monkeypatch):
    # (x/2)^-nu is 0 here and |J_nu| <= 1, so z_nu is 0 without a backward
    # sweep over a million orders (11 s of an mh-curve job at alpha = 1e6)
    monkeypatch.setattr(special_functions, "bessel_j", lambda nu, x: pytest.fail("swept"))
    assert not special_functions._bessel_z(1e6, np.linspace(2000.0, 3000.0, 11)).any()


def _series_j0(x):
    # independent ascending series for J_0, plenty of terms for x <= 3
    total = 0.0
    term = 1.0
    for k in range(1, 25):
        total += term
        term *= -(x * x / 4.0) / (k * k)
    return total


def _bisect_first_j0_zero():
    lo, hi = 2.0, 3.0
    flo = _series_j0(lo)
    assert flo * _series_j0(hi) < 0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if (_series_j0(mid) > 0) == (flo > 0):
            lo, flo = mid, _series_j0(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBesselZeros:
    def test_order3_first_and_fourth(self):
        assert bessel_j_zero(3.0, 1) == pytest.approx(6.38016, abs=1e-4)
        assert bessel_j_zero(3.0, 4) == pytest.approx(16.2235, abs=1e-4)

    def test_first_zero_of_j0_vs_series_bisection(self):
        assert bessel_j_zero(0.0, 1) == pytest.approx(_bisect_first_j0_zero(),
                                                      abs=1e-9)

    def test_residual_and_monotone(self):
        for nu in (-0.9, 0.0, 3.0, 7.5, 12.0):
            prev = 0.0
            for i in range(1, 13):
                z = bessel_j_zero(nu, i)
                assert z > prev
                assert abs(bessel_j(nu, z)) <= 1e-10
                prev = z

    @pytest.mark.parametrize("nu", [-0.9, -0.4, 0.0, 1.0, 2.5, 4.0, 7.0, 9.5, 11.0])
    def test_interlacing(self, nu):
        for i in range(1, 21):
            assert bessel_j_zero(nu, i) < bessel_j_zero(nu + 1.0, i)
            assert bessel_j_zero(nu + 1.0, i) < bessel_j_zero(nu, i + 1)

    @pytest.mark.parametrize("nu", [5, 13])
    def test_against_scipy_integer_orders(self, nu):
        # one scan brackets and refines all 25 zeros together; the 25th is
        # the same whichever call finds it
        z25 = bessel_j_zero(float(nu), 25)
        zs = np.array([bessel_j_zero(float(nu), k) for k in range(1, 26)])
        assert zs[-1] == z25
        assert np.max(np.abs(zs - jn_zeros(nu, 25))) <= 1e-12

    @pytest.mark.parametrize("nu", [30, 40])
    def test_first_zero_at_high_order(self, nu):
        # J_nu underflows to 0 near the origin; a zero value is no sign change
        z = bessel_j_zero(float(nu), 1)
        assert z > nu
        assert abs(z - jn_zeros(nu, 1)[0]) <= 1e-4

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_j_zero(-1.2, 1)
        with pytest.raises(ValueError):
            bessel_j_zero(0.0, 0)
