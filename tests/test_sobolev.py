import math
from fractions import Fraction

import numpy as np
import pytest

from sobolev_mh.jacobi import JacobiParams, clenshaw_eval, deriv_at_one, jacobi_eval, norm2
from sobolev_mh.presets import SETUPS
from sobolev_mh.sobolev import (
    MassKind,
    MassSequence,
    SobolevSetup,
    connection_coeffs,
    connection_reconstruct,
    deriv_ratio,
    kernel_at_one,
    mass,
    q_deriv_at_one,
    sobolev_norm2,
    sobolev_polynomial,
)
from sobolev_mh.special_functions import log_gamma

from mp_oracle import SobolevOracle, coeff_error

ZERO_MASS = SobolevSetup(JacobiParams(0.0, 0.0), 3,
                         MassSequence(MassKind.PLAIN, 0.0, 2.0))


class TestMass:
    def test_exp_rational_limit(self):
        seq = MassSequence(MassKind.EXP_RATIONAL, Fraction(1, 2), 25.0)
        assert mass(seq, 50) * 50.0**25 == pytest.approx(0.5, abs=1e-3)

    def test_poly_ratio_direct(self):
        seq = MassSequence(MassKind.POLY_RATIO, 5.0, 12.2)
        n = 250
        expect = 5.0 * n**2 * (n - 0.5) * (n + 2) / n**16.2
        assert mass(seq, n) == pytest.approx(expect, rel=1e-14)

    def test_log_ratio_direct(self):
        seq = MassSequence(MassKind.LOG_RATIO, 3.5, 4.0)
        expect = (7 * math.log(151.0) + 5) / ((3 + 2 * math.log(150.0)) * 150.0**4)
        assert mass(seq, 150) == pytest.approx(expect, rel=1e-14)

    def test_plain_zero(self):
        seq = MassSequence(MassKind.PLAIN, 0.0, 7.0)
        assert all(mass(seq, n) == 0.0 for n in (1, 10, 400))

    def test_custom_lookup(self):
        seq = MassSequence(MassKind.CUSTOM, 1.0, 2.0, custom_values={3: 0.25})
        assert mass(seq, 3) == 0.25
        with pytest.raises(KeyError):
            mass(seq, 4)

    def test_domain(self):
        with pytest.raises(ValueError):
            mass(MassSequence(MassKind.PLAIN, 1.0, 2.0), 0)

    @pytest.mark.parametrize("kind", [MassKind.PLAIN, MassKind.POLY_RATIO])
    def test_fraction_parameters_convert_once(self, kind):
        # the cached floats give the values of converting at every call
        M, gamma = Fraction(61, 7), Fraction(61, 5)
        seq = MassSequence(kind, M, gamma)
        assert (seq.m, seq.g) == (float(M), float(gamma))
        for n in (1, 2, 37, 150, 5000):
            g = float(gamma)
            expect = (float(M) * n ** (-g) if kind is MassKind.PLAIN
                      else float(M) * n * n * (n - 0.5) * (n + 2.0) / n ** (g + 4.0))
            assert mass(seq, n) == expect
        assert seq == MassSequence(kind, M, gamma)  # fields only, not the cache


class TestKernel:
    def test_single_term(self):
        s = SobolevSetup(JacobiParams(0.0, 0.0), 0,
                         MassSequence(MassKind.PLAIN, 1.0, 2.0))
        kv = kernel_at_one(s, 0, 0, 0)
        assert kv.value == pytest.approx(0.5, rel=1e-13)

    def test_scaled_limit_legendre(self):
        # K_n/n^2 -> 1/2 for the order-zero Legendre kernel
        s = SobolevSetup(JacobiParams(0.0, 0.0), 0,
                         MassSequence(MassKind.PLAIN, 1.0, 2.0))
        assert kernel_at_one(s, 2000, 0, 0).scaled == pytest.approx(0.5, abs=1e-2)

    def test_monotone_in_n(self):
        s = SETUPS["subcritical"]
        prev = 0.0
        for n in (5, 9, 14, 30):
            v = kernel_at_one(s, n, 3, 3).value
            assert v >= prev
            prev = v

    def test_scaled_sequence_settles(self, tabulated_setup):
        s = tabulated_setup
        vals = [kernel_at_one(s, n, 3, 2).scaled for n in (100, 200, 400)]
        assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])

    def test_matrix_entry_limit(self):
        # derivative-ratio matrix entries approach 2^i Gamma(a+k+1)/Gamma(a+i+k+1)
        a, b = 3.0, -0.5
        p = JacobiParams(a, b)
        n = 5000
        for k in range(5):
            for i in range(k + 1):
                got = (deriv_at_one(n - i, k - i, JacobiParams(a + 2 * i, b))
                       / deriv_at_one(n, k, p))
                ref = 2.0**i * math.exp(log_gamma(a + k + 1) - log_gamma(a + i + k + 1))
                assert got == pytest.approx(ref, abs=1e-2, rel=1e-2)

    def test_scaled_is_finite_where_the_power_overflows(self):
        # n^(2a + 2j + 2k + 2) = 3000^122 is not a double; K / 3000^122 is
        s = SobolevSetup(JacobiParams(40.0, 0.0), 10,
                         MassSequence(MassKind.PLAIN, 1.0, 1.0))
        kv = kernel_at_one(s, 3000, 10, 10)
        assert math.isfinite(kv.value)
        assert kv.scaled == pytest.approx(
            math.exp(math.log(kv.value) - 122.0 * math.log(3000.0)), rel=1e-12)

    def test_unrepresentable_value_raises(self):
        s = SobolevSetup(JacobiParams(100.0, 0.0), 20,
                         MassSequence(MassKind.PLAIN, 1.0, 1.0))
        with pytest.raises(OverflowError):
            kernel_at_one(s, 3000, 20, 20)


class TestSobolevPolynomial:
    def test_zero_mass_is_classical(self):
        s = sobolev_polynomial(ZERO_MASS, 12)
        expect = np.zeros(13)
        expect[12] = 1.0
        assert np.array_equal(s.coeffs, expect)

    def test_leading_coefficient_unit(self, tabulated_setup):
        assert sobolev_polynomial(tabulated_setup, 37).coeffs[-1] == 1.0

    @pytest.mark.parametrize("n", [10, 37, 64, 100])
    def test_orthogonality_residual(self, tabulated_setup, n):
        s = tabulated_setup
        series = sobolev_polynomial(s, n)
        Mn = mass(s.mass, n)
        qj1 = q_deriv_at_one(s, n, s.j)
        hn = norm2(n, s.params)
        for m in range(n):
            ip = (series.coeffs[m] * norm2(m, s.params)
                  + Mn * qj1 * deriv_at_one(m, s.j, s.params))
            assert abs(ip) <= 1e-9 * hn


class TestQDerivAtOne:
    def test_zero_mass(self):
        for k in (0, 2, 3):
            assert q_deriv_at_one(ZERO_MASS, 9, k) == deriv_at_one(
                9, k, ZERO_MASS.params)

    @pytest.mark.parametrize("n,k", [(12, 1), (20, 2), (30, 3)])
    def test_matches_finite_difference(self, subcritical, critical_small, n, k):
        # At k equal to the mass order with a saturated mass term, the true
        # derivative is a near-total cancellation that binary64 series
        # coefficients cannot represent, so that combination is checked on
        # the mildly perturbed setup instead.
        setup = critical_small if k == 3 else subcritical
        series = sobolev_polynomial(setup, n)
        f = lambda x: clenshaw_eval(series, x)
        h = {1: 1e-6, 2: 1e-5, 3: 3e-5}[k]
        if k == 1:
            fd = (f(1 + h) - f(1 - h)) / (2 * h)
        elif k == 2:
            fd = (f(1 + h) - 2 * f(1.0) + f(1 - h)) / h**2
        else:
            fd = (f(1 + 2 * h) - 2 * f(1 + h) + 2 * f(1 - h)
                  - f(1 - 2 * h)) / (2 * h**3)
        assert q_deriv_at_one(setup, n, k) == pytest.approx(fd, rel=1e-4)


class TestDerivRatio:
    def test_subcritical_at_mass_order_vanishes(self, subcritical):
        # limit is (k-j)/(a+j+k+1) = 0 at k = j
        r500 = deriv_ratio(subcritical, 500, 3)
        r2000 = deriv_ratio(subcritical, 2000, 3)
        assert abs(r2000) < abs(r500)
        assert abs(r2000) <= 5e-2

    def test_supercritical_tends_to_one(self, supercritical):
        assert deriv_ratio(supercritical, 2000, 0) == pytest.approx(1.0, abs=5e-2)

    def test_critical_matches_closed_form(self, critical_small):
        a = b = -0.9
        j, M = 3, 5.0
        G = math.exp(2 * log_gamma(a + j + 1)
                     + (a + b + 2 * j + 1) * math.log(2.0)) * (a + 2 * j + 1)
        for k in (0, 1, 3):
            theta = ((M * (k - j) + G * (a + j + k + 1))
                     / ((a + j + k + 1) * (M + G)))
            assert deriv_ratio(critical_small, 2000, k) == pytest.approx(
                theta, abs=5e-2)

    def test_precondition(self, subcritical):
        with pytest.raises(ValueError):
            deriv_ratio(subcritical, 5, 6)


class TestSobolevNorm:
    def test_zero_mass_exact(self):
        assert sobolev_norm2(ZERO_MASS, 8) == norm2(8, ZERO_MASS.params)

    def test_ratio_tends_to_one(self, tabulated_setup):
        # the gap decays like const/n; the subcritical constant is ~20, so
        # the degree-2000 value sits at 1.0100 and the bound reflects that
        far = sobolev_norm2(tabulated_setup, 500) / norm2(500, tabulated_setup.params)
        near = sobolev_norm2(tabulated_setup, 2000) / norm2(2000, tabulated_setup.params)
        assert abs(near - 1.0) <= abs(far - 1.0)
        assert near == pytest.approx(1.0, abs=1.1e-2)

    def test_never_below_plain_norm(self, tabulated_setup):
        for n in (1, 7, 40):
            assert sobolev_norm2(tabulated_setup, n) >= norm2(
                n, tabulated_setup.params)


class TestConnection:
    def test_zero_mass_trivial(self):
        b = connection_coeffs(ZERO_MASS, 20)
        assert b[0] == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(b[1:], 0.0, atol=1e-12)

    def test_needs_degree_beyond_order(self, subcritical):
        with pytest.raises(ValueError):
            connection_coeffs(subcritical, 3)

    def test_triangular_consistency(self, tabulated_setup):
        # substituting the solution back reproduces every derivative ratio
        s = tabulated_setup
        n = 60
        b = connection_coeffs(s, n)
        a0 = s.params.a
        for k in range(s.j + 2):
            acc = 0.0
            for i in range(k + 1):
                A = (deriv_at_one(n - i, k - i, JacobiParams(a0 + 2 * i, s.params.b))
                     / deriv_at_one(n, k, s.params))
                acc += b[i] * math.comb(k, i) * (-1) ** i * math.factorial(i) * A
            assert acc == pytest.approx(deriv_ratio(s, n, k), abs=1e-10, rel=1e-10)

    @pytest.mark.parametrize("n", [20, 41, 60])
    def test_reconstruct_equals_series(self, tabulated_setup, n):
        s = tabulated_setup
        grid = np.linspace(-1.0, 1.0, 21)
        direct = clenshaw_eval(sobolev_polynomial(s, n), grid)
        rebuilt = connection_reconstruct(s, n, grid)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(direct - rebuilt)) <= 1e-8 * scale

    def test_reconstruct_equals_per_polynomial_sum(self, tabulated_setup):
        # the stacked pass gives bit for bit the sum of separate evaluations
        s = tabulated_setup
        p = s.params
        grid = np.linspace(-1.0, 1.0, 21)
        for n in (s.j + 1, 10, 60, 150):
            b = connection_coeffs(s, n)
            expect = np.zeros_like(grid)
            for i in range(s.j + 2):
                shifted = JacobiParams(p.a + 2.0 * i, p.b)
                expect += b[i] * (1.0 - grid) ** i * jacobi_eval(n - i, shifted, grid)
            np.testing.assert_array_equal(connection_reconstruct(s, n, grid), expect)

    def test_degree_sequence_equals_single_degrees(self, tabulated_setup):
        # one stacked pass over every degree gives each degree's own row
        s = tabulated_setup
        grid = np.linspace(-1.0, 1.0, 21)
        degrees = range(s.j + 1, 61)
        got = connection_reconstruct(s, degrees, grid)
        assert got.shape == (len(degrees), 21)
        for row, n in zip(got, degrees):
            np.testing.assert_array_equal(row, connection_reconstruct(s, n, grid))

    def test_degree_sequence_shapes(self, critical_big):
        assert connection_reconstruct(critical_big, [5, 9], 0.25).shape == (2,)
        assert connection_reconstruct(critical_big, [7], np.zeros((2, 3))).shape == (1, 2, 3)
        with pytest.raises(ValueError):
            connection_reconstruct(critical_big, [9, critical_big.j], 0.25)

    def test_reconstruct_at_one(self, critical_big):
        n = 40
        b = connection_coeffs(critical_big, n)
        got = connection_reconstruct(critical_big, n, 1.0)
        expect = b[0] * jacobi_eval(n, critical_big.params, 1.0)
        assert got == pytest.approx(expect, rel=1e-10)

    def test_zero_mass_reconstruct_is_classical(self):
        got = connection_reconstruct(ZERO_MASS, 15, 0.37)
        assert got == pytest.approx(jacobi_eval(15, ZERO_MASS.params, 0.37),
                                    rel=1e-10)


def test_degree_arrays_match_single_degrees(tabulated_setup):
    # every closed form taking an array of degrees gives each degree's own value
    s = tabulated_setup
    n = np.arange(s.j + 1, 41)
    for k in (0, s.j, s.j + 1):
        np.testing.assert_array_equal(q_deriv_at_one(s, n, k),
                                      [q_deriv_at_one(s, m, k) for m in n])
        np.testing.assert_array_equal(deriv_ratio(s, n, k), [deriv_ratio(s, m, k) for m in n])
        np.testing.assert_array_equal(deriv_at_one(n, k, s.params),
                                      [deriv_at_one(m, k, s.params) for m in n])
    np.testing.assert_array_equal(norm2(n, s.params), [norm2(m, s.params) for m in n])
    np.testing.assert_array_equal(sobolev_norm2(s, n), [sobolev_norm2(s, m) for m in n])
    np.testing.assert_array_equal(connection_coeffs(s, n),
                                  [connection_coeffs(s, m) for m in n])


class TestMpmathOracle:
    """The closed forms against 50-digit mpmath (``mp_oracle``) on the four
    presets; binary64 log-Gamma cancellation leaves ~2e-13 in the series
    coefficients and ~2e-12 in the connection coefficients."""

    @pytest.fixture(scope="class", params=sorted(SETUPS))
    def case(self, request):
        s = SETUPS[request.param]
        return s, SobolevOracle(s, 60)

    @pytest.mark.parametrize("n", [20, 60])
    def test_series_coefficients(self, case, n):
        s, oracle = case
        assert coeff_error(sobolev_polynomial(s, n).coeffs, oracle.coeffs(n)) <= 1e-12

    @pytest.mark.parametrize("n", [20, 60])
    def test_connection_coefficients(self, case, n):
        s, oracle = case
        ref = np.array([float(v) for v in oracle.connection(n)])
        assert np.max(np.abs(connection_coeffs(s, n) - ref)) <= 1e-11 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [20, 60])
    def test_kernel_sums(self, case, n):
        s, oracle = case
        for k in range(s.j + 2):
            ref = float(oracle.kernel(n, k))
            assert kernel_at_one(s, n, s.j, k).value == pytest.approx(ref, rel=1e-12)
