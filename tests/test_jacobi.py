import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_jacobi, roots_jacobi

from sobolev_mh import kernels
from sobolev_mh.jacobi import (
    JacobiParams,
    JacobiSeries,
    clenshaw_eval,
    deriv_at_one,
    derivative_series,
    jacobi_eval,
    norm2,
    scaled_eval,
    value_at_one,
)
from sobolev_mh.presets import SETUPS
from sobolev_mh.sobolev import sobolev_polynomial
from sobolev_mh.special_functions import bessel_j, log_gamma

P01 = JacobiParams(0.0, 0.0)


def test_params_validated():
    with pytest.raises(ValueError):
        JacobiParams(-1.0, 0.0)
    with pytest.raises(ValueError):
        JacobiParams(0.0, -1.5)


class TestEval:
    def test_degree_zero(self):
        assert jacobi_eval(0, JacobiParams(2.3, -0.7), 0.4) == 1.0

    def test_degree_one_legendre(self):
        assert jacobi_eval(1, P01, 0.5) == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("n", [1, 5, 17, 60, 120])
    @pytest.mark.parametrize("ab", [(0.0, 0.0), (3.0, 1.0), (-0.9, -0.9), (3.0, -0.5)])
    def test_value_at_one_consistency(self, n, ab):
        p = JacobiParams(*ab)
        assert jacobi_eval(n, p, 1.0) == pytest.approx(value_at_one(n, ab[0]),
                                                       rel=1e-12)


# the presets' (alpha, beta) pairs, Legendre and a large pair
@pytest.mark.parametrize("ab", [(3.0, 1.0), (3.0, -0.5), (-0.9, -0.9), (0.0, 0.0),
                                (10.0, 5.0)])
@pytest.mark.parametrize("n", [0, 1, 2, 12, 60, 150, 500, 1000])
def test_eval_matches_scipy_oracle(n, ab):
    x = np.linspace(-1.0, 1.0, 2001)
    ref = eval_jacobi(n, ab[0], ab[1], x)
    got = jacobi_eval(n, JacobiParams(*ab), x)
    assert np.max(np.abs(got - ref)) <= 2e-11 * np.max(np.abs(ref))


class TestValueAtOne:
    def test_examples(self):
        assert value_at_one(0, 1.7) == pytest.approx(1.0, rel=1e-14)
        assert value_at_one(2, 3.0) == pytest.approx(10.0, rel=1e-13)
        assert value_at_one(5, 0.0) == pytest.approx(1.0, rel=1e-13)


def _central_stencil(n, k, p, h):
    f = lambda x: jacobi_eval(n, p, x)
    if k == 1:
        return (f(1 + h) - f(1 - h)) / (2 * h)
    if k == 2:
        return (f(1 + h) - 2 * f(1.0) + f(1 - h)) / h**2
    if k == 3:
        return (f(1 + 2 * h) - 2 * f(1 + h) + 2 * f(1 - h) - f(1 - 2 * h)) / (2 * h**3)
    if k == 4:
        return (f(1 + 2 * h) - 4 * f(1 + h) + 6 * f(1.0) - 4 * f(1 - h)
                + f(1 - 2 * h)) / h**4
    raise AssertionError


def _fd_deriv_at_one(n, k, p, h):
    # one Richardson step kills the O(h^2) term of the central stencils
    return (4.0 * _central_stencil(n, k, p, h / 2) - _central_stencil(n, k, p, h)) / 3.0


_FD_H = {1: 1e-5, 2: 1e-4, 3: 3e-4, 4: 4e-4}


class TestDerivAtOne:
    def test_order_zero_is_value(self):
        p = JacobiParams(1.2, -0.3)
        for n in (0, 4, 33):
            assert deriv_at_one(n, 0, p) == value_at_one(n, 1.2)

    def test_above_degree_vanishes(self):
        assert deriv_at_one(3, 4, P01) == 0.0

    def test_unrepresentable_value_raises(self):
        # 2^-3 (n+a+b+1)_3 C(n+a, n-3) at n = 3000, a = 300 is far above the
        # double range: OverflowError, as math.exp gives, not inf and a warning
        with pytest.raises(OverflowError):
            deriv_at_one(3000, 3, JacobiParams(300.0, 0.0))

    def test_legendre_cubic_third_derivative(self):
        # P_3 on (0,0) is (5x^3 - 3x)/2, so the third derivative is 15
        assert deriv_at_one(3, 3, P01) == pytest.approx(15.0, rel=1e-13)

    def test_example_against_finite_difference(self):
        p = JacobiParams(1.0, 1.0)
        fd = _fd_deriv_at_one(2, 1, p, 1e-6)
        assert deriv_at_one(2, 1, p) == pytest.approx(fd, rel=1e-5)

    @pytest.mark.parametrize("n,k", [(5, 1), (12, 2), (19, 3), (30, 4), (30, 2)])
    @pytest.mark.parametrize("ab", [(0.0, 0.0), (3.0, 1.0), (-0.9, -0.9)])
    def test_finite_difference_sweep(self, n, k, ab):
        p = JacobiParams(*ab)
        fd = _fd_deriv_at_one(n, k, p, _FD_H[k])
        assert deriv_at_one(n, k, p) == pytest.approx(fd, rel=1e-5)


class TestNorm2:
    def test_legendre_values(self):
        assert norm2(0, P01) == pytest.approx(2.0, rel=1e-14)
        for n in (1, 6, 40):
            assert norm2(n, P01) == pytest.approx(2.0 / (2 * n + 1), rel=1e-13)

    def test_against_gauss_legendre_quadrature(self):
        # weight (1-x)^1 folded into the integrand stays polynomial
        p = JacobiParams(1.0, 0.0)
        x, w = np.polynomial.legendre.leggauss(64)
        val = float(np.sum(w * jacobi_eval(1, p, x) ** 2 * (1.0 - x)))
        assert norm2(1, p) == pytest.approx(val, rel=1e-10)

    def test_orthogonality_polynomial_weight(self):
        # (3,1): integrand is a polynomial, Gauss-Legendre is exact
        p = JacobiParams(3.0, 1.0)
        x, w = np.polynomial.legendre.leggauss(64)
        wt = (1.0 - x) ** 3 * (1.0 + x)
        for n in (0, 3, 11, 30):
            for m in range(0, n + 1, 3):
                ip = float(np.sum(w * wt * jacobi_eval(n, p, x) * jacobi_eval(m, p, x)))
                ref = norm2(n, p) if m == n else 0.0
                assert abs(ip - ref) <= 1e-9 * max(1.0, norm2(n, p))

    @pytest.mark.parametrize("ab", [(-0.9, -0.9), (3.0, -0.5), (-0.5, -0.5)])
    def test_orthogonality_singular_weight(self, ab):
        # singular weights need the matching Gauss rule as the oracle
        p = JacobiParams(*ab)
        x, w = roots_jacobi(40, ab[0], ab[1])
        for n in (0, 2, 9, 25):
            for m in range(0, n + 1, 5):
                ip = float(np.sum(w * jacobi_eval(n, p, x) * jacobi_eval(m, p, x)))
                ref = norm2(n, p) if m == n else 0.0
                assert abs(ip - ref) <= 1e-9 * max(1.0, norm2(n, p))


def _naive_series_eval(series, x):
    return sum(c * jacobi_eval(i, series.params, x)
               for i, c in enumerate(series.coeffs))


class TestClenshaw:
    def test_unit_vector(self):
        p = JacobiParams(3.0, -0.5)
        c = np.zeros(13)
        c[12] = 1.0
        s = JacobiSeries(p, c)
        for x in (-0.8, 0.123, 0.99):
            assert clenshaw_eval(s, x) == pytest.approx(jacobi_eval(12, p, x),
                                                        rel=1e-12)

    def test_one_plus_x(self):
        s = JacobiSeries(P01, np.array([1.0, 1.0]))
        assert clenshaw_eval(s, 0.5) == pytest.approx(1.5, rel=1e-14)

    def test_random_degree20_vs_naive(self):
        rng = np.random.default_rng(42)
        s = JacobiSeries(JacobiParams(1.3, -0.2), rng.standard_normal(21))
        got = clenshaw_eval(s, 0.3)
        assert got == pytest.approx(_naive_series_eval(s, 0.3), rel=1e-10)

    @given(st.integers(1, 50), st.floats(-1.0, 1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_naive_summation(self, deg, x, seed):
        rng = np.random.default_rng(seed)
        s = JacobiSeries(JacobiParams(-0.4, 0.7), rng.uniform(-1, 1, deg + 1))
        ref = _naive_series_eval(s, x)
        scale = max(1.0, abs(ref))
        assert abs(clenshaw_eval(s, x) - ref) <= 1e-10 * scale


def _recurrence_loop(m, alpha, beta):
    # reference: the recurrence coefficients one index at a time
    A = np.empty(max(m, 1))
    B = np.empty(max(m, 1))
    C = np.zeros(max(m, 1))
    A[0] = 0.5 * (alpha + beta + 2.0)
    B[0] = 0.5 * (alpha - beta)
    for i in range(1, m):
        s = 2.0 * i + alpha + beta
        den = 2.0 * (i + 1.0) * (i + alpha + beta + 1.0)
        A[i] = (s + 1.0) * (s + 2.0) / den
        B[i] = (alpha * alpha - beta * beta) * (s + 1.0) / (den * s)
        C[i] = 2.0 * (i + alpha) * (i + beta) * (s + 2.0) / (den * s)
    return A, B, C


class TestStackedClenshaw:
    ALPHAS = np.array([-0.9, 0.0, 3.0, 7.5])

    @pytest.mark.parametrize("ab", [(0.0, 0.0), (-0.5, -0.5), (0.5, -0.5),
                                    (-0.9, -0.9), (3.0, -0.5), (10.0, 5.0)])
    @pytest.mark.parametrize("m", [0, 1, 2, 61, 5002])
    def test_recurrence_column_equals_scalar_calls(self, ab, m):
        a, b = ab
        stacked = kernels.jacobi_recurrence(m, a + 2.0 * np.arange(4)[:, None], b)
        for r in range(4):
            scalar = kernels.jacobi_recurrence(m, a + 2.0 * r, b)
            for s_arr, v, ref in zip(stacked, scalar, _recurrence_loop(m, a + 2.0 * r, b)):
                np.testing.assert_array_equal(v, ref)
                np.testing.assert_array_equal(s_arr[r], v)

    @pytest.mark.parametrize("points", [1, 1000])
    @pytest.mark.parametrize("above", [False, True])
    def test_stack_equals_rows(self, points, above):
        # rows of degree 60, 30 (zero-padded) and 0, plus one degree-60 row
        rng = np.random.default_rng(points)
        c = rng.standard_normal((4, 61))
        c[1, 31:] = 0.0
        c[2, 1:] = 0.0
        A, B, C = kernels.jacobi_recurrence(62, self.ALPHAS[:, None], 0.5)
        # above 1 the degree-60 rows overflow from x ~ 1e5 on
        x = (np.geomspace(1e8, 1.0, points) if above
             else np.linspace(-1.0, 1.0, points))
        with np.errstate(over="ignore", invalid="ignore"):
            got = kernels.clenshaw_batch(c, A, B, C, x)
            assert got.shape == (4, points)
            for r, a in enumerate(self.ALPHAS):
                deg = int(np.flatnonzero(c[r])[-1])
                Ar, Br, Cr = kernels.jacobi_recurrence(deg + 2, a, 0.5)
                one = kernels.clenshaw_batch(c[r, :deg + 1], Ar, Br, Cr, x)
                np.testing.assert_array_equal(got[r], one)
        if above:
            assert not np.all(np.isfinite(got))  # the overflow reached the rows

    def test_lone_point_equals_pair(self):
        s = sobolev_polynomial(SETUPS["subcritical"], 500)
        A, B, C = kernels.jacobi_recurrence(502, s.params.a, s.params.b)
        pair = kernels.clenshaw_batch(s.coeffs, A, B, C, np.array([0.37, -0.2]))
        lone = kernels.clenshaw_batch(s.coeffs, A, B, C, np.array([0.37]))
        assert lone.shape == (1,)
        assert lone[0] == pair[0]


@given(st.integers(0, 100), st.floats(-1.0, 1.0),
       st.floats(-0.95, 4.0), st.floats(-0.95, 4.0))
@settings(max_examples=40, deadline=None)
def test_reflection_symmetry(n, x, a, b):
    lhs = jacobi_eval(n, JacobiParams(a, b), -x)
    rhs = (-1.0) ** n * jacobi_eval(n, JacobiParams(b, a), x)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-10 * scale


class TestScaledEval:
    def test_at_zero_argument(self):
        for n in (50, 400):
            got = scaled_eval(n, JacobiParams(3.0, 1.0), 0.0)
            assert got == pytest.approx(n ** -3.0 * value_at_one(n, 3.0), rel=1e-12)
        # limit of the scaled endpoint value is 1/Gamma(alpha+1)
        assert scaled_eval(4000, JacobiParams(3.0, 1.0), 0.0) == pytest.approx(
            1.0 / math.exp(log_gamma(4.0)), rel=2e-3)

    def test_near_first_limit_zero(self):
        assert abs(scaled_eval(500, JacobiParams(3.0, 1.0), 6.38016)) <= 2e-2

    def test_sup_error_decreases(self):
        p = JacobiParams(3.0, 1.0)
        us = np.linspace(1e-3, 15.0, 120)
        ref = np.array([(u / 2.0) ** -3.0 * bessel_j(3.0, u) for u in us])
        sups = [float(np.max(np.abs(scaled_eval(n, p, us) - ref))) for n in (200, 400)]
        assert sups[1] < sups[0]

    def test_domain(self):
        with pytest.raises(ValueError):
            scaled_eval(10, P01, 21.0)


def test_derivative_series_matches_finite_difference():
    rng = np.random.default_rng(7)
    s = JacobiSeries(JacobiParams(0.4, -0.6), rng.standard_normal(15))
    d = derivative_series(s)
    for x in (-0.5, 0.2, 0.9):
        h = 1e-6
        fd = (clenshaw_eval(s, x + h) - clenshaw_eval(s, x - h)) / (2 * h)
        assert clenshaw_eval(d, x) == pytest.approx(fd, rel=1e-7, abs=1e-9)
