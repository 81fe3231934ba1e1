import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import jv

from mp_oracle import exact_limit_coeffs, limit_value
from reference_values import TRUE_LIMIT_COEFFS

from sobolev_mh.asymptotics import (
    RegimeKind,
    classify_regime,
    critical_mass_threshold,
    limit_coeffs,
    limit_eval,
    order_zero_identity_residual,
)
from sobolev_mh.jacobi import JacobiParams
from sobolev_mh.presets import SETUPS
from sobolev_mh.sobolev import MassKind, MassSequence, SobolevSetup, connection_coeffs
from sobolev_mh.special_functions import bessel_j, log_gamma


def _critical_setup(alpha, beta, j, M):
    gamma = Fraction(2) * (Fraction(alpha) + 2 * j + 1)
    return SobolevSetup(JacobiParams(Fraction(alpha), Fraction(beta)), j,
                        MassSequence(MassKind.PLAIN, M, gamma))


class TestClassify:
    def test_supercritical(self):
        r = classify_regime(25, 3, 3)
        assert r.kind is RegimeKind.SUPERCRITICAL
        assert r.threshold == 20

    def test_subcritical(self):
        assert classify_regime(4, 3, 3).kind is RegimeKind.SUBCRITICAL

    def test_knife_edge_exact(self):
        r = classify_regime(Fraction(61, 5), Fraction(-9, 10), 3)
        assert r.kind is RegimeKind.CRITICAL
        assert r.threshold == Fraction(61, 5)

    def test_preset_critical_never_drifts(self):
        s = SETUPS["critical-small-mass"]
        r = classify_regime(s.mass.gamma, s.params.alpha, s.j)
        assert r.kind is RegimeKind.CRITICAL


class TestMassThreshold:
    def test_reference_value(self):
        v = critical_mass_threshold(Fraction(-9, 10), Fraction(-9, 10), 3)
        assert v == pytest.approx(1119.0037947, rel=1e-5)

    def test_beta_scaling(self):
        assert critical_mass_threshold(0.3, 1.4, 2) == pytest.approx(
            2.0 * critical_mass_threshold(0.3, 0.4, 2), rel=1e-13)

    def test_direct_substitution(self):
        # 2^(0+0+2+1) * (0+1+1) * (0+2+1) * Gamma(2)^2 / 1 = 8 * 2 * 3 = 48
        assert critical_mass_threshold(0, 0, 1) == pytest.approx(48.0, rel=1e-13)

    def test_needs_positive_order(self):
        with pytest.raises(ValueError):
            critical_mass_threshold(0.0, 0.0, 0)

    def test_sign_of_b0_is_the_escape_rule(self):
        # convergence_table excludes the largest zero when b_0 < 0: that must
        # be the regime rule, subcritical or critical above the threshold,
        # for a nonzero mass limit and a positive derivative order
        alphas = (Fraction(-9, 10), Fraction(-1, 2), 0, 1, Fraction(15, 2), 40)
        masses = (0, Fraction(1, 1000), 1, 5, 10**6)
        for alpha, beta, j, kind, M, shift in itertools.product(
                alphas, (Fraction(-9, 10), 0, 5), (0, 1, 2, 5, 8), MassKind, masses,
                (-1, 0, 1)):
            gamma = 2 * (Fraction(alpha) + 2 * j + 1) + shift
            custom = {1: 0.0} if kind is MassKind.CUSTOM else None
            setup = SobolevSetup(JacobiParams(alpha, beta), j,
                                 MassSequence(kind, M, gamma, custom))
            m = setup.mass.m
            escapes = j >= 1 and m > 0.0 and (
                shift < 0 or (shift == 0 and m > critical_mass_threshold(alpha, beta, j)))
            assert (limit_coeffs(setup).b[0] < 0.0) == escapes, (alpha, beta, j, kind, M, shift)


class TestLimitCoeffs:
    def test_supercritical_unit(self, supercritical):
        lf = limit_coeffs(supercritical)
        assert lf.b[0] == 1.0
        assert np.allclose(lf.b[1:], 0.0)

    def test_order_zero_subcritical(self):
        s = SobolevSetup(JacobiParams(Fraction(1, 2), Fraction(0)), 0,
                         MassSequence(MassKind.PLAIN, 2.0, Fraction(1)))
        lf = limit_coeffs(s)
        assert lf.b == pytest.approx([0.0, -0.5], abs=1e-14)

    def test_order_zero_critical_closed_forms(self):
        # b0 = G/(M+G), b1 = -M/(2(M+G)) with
        # G = Gamma(alpha+1)^2 2^(alpha+beta+1) (alpha+1); the sign of b0 is
        # pinned by the exact finite-degree identity checked below
        a, b, M = 0.7, -0.3, 2.3
        G = math.exp(2 * log_gamma(a + 1) + (a + b + 1) * math.log(2.0)) * (a + 1)
        lf = limit_coeffs(_critical_setup(a, b, 0, M))
        assert lf.b[0] == pytest.approx(G / (M + G), rel=1e-12)
        assert lf.b[1] == pytest.approx(-M / (2 * (M + G)), rel=1e-12)

    def test_order_zero_critical_legendre_is_exact_at_finite_degree(self):
        # Legendre with M_n = M/n^2: the degree-n value ratio at 1 is exactly
        # 1/(1 + M/2) for every n, so the coefficient limit equals it too
        M = 1.0
        s = _critical_setup(0, 0, 0, M)
        b = connection_coeffs(s, 400)
        assert b[0] == pytest.approx(1.0 / (1.0 + M / 2.0), rel=1e-10)
        assert limit_coeffs(s).b[0] == pytest.approx(1.0 / (1.0 + M / 2.0),
                                                     rel=1e-13)

    def test_finite_degree_convergence_trend(self, critical_small):
        lf = limit_coeffs(critical_small)
        d1 = np.max(np.abs(connection_coeffs(critical_small, 400) - lf.b))
        d2 = np.max(np.abs(connection_coeffs(critical_small, 1600) - lf.b))
        assert d2 < d1
        assert d2 <= 5e-3

    @pytest.mark.parametrize("max_j, bound", [(3, 3e-13), (8, 1e-10), (10, 1e-15)])
    def test_subcritical_against_exact_rationals(self, max_j, bound):
        # the subcritical system is rational in alpha; a solve in double was
        # 1.8e-13 off at j <= 3, 6.2e-11 at j <= 8 and 4.6e-5 at alpha = 30,
        # j = 10, relative to the largest coefficient
        for alpha, j in itertools.product((0, 1, 3, 7, 30), range(max_j + 1)):
            exact = np.array([float(v) for v in exact_limit_coeffs(alpha, j)])
            setup = SobolevSetup(JacobiParams(alpha, 0), j, MassSequence(MassKind.PLAIN, 1, 1))
            err = np.max(np.abs(limit_coeffs(setup).b - exact)) / np.max(np.abs(exact))
            assert err <= bound, (alpha, j, err)

    def test_subcritical_equals_exact_rationals(self):
        # the subcritical system is rational in alpha and solved exactly, so
        # each coefficient is its exact value rounded once (a solve in double
        # is 4.6e-5 off at alpha = 30, j = 10, relative to the largest one)
        for alpha, j in itertools.product((0, 1, 3, 7, 30), range(13)):
            exact = [float(v) for v in exact_limit_coeffs(alpha, j)]
            setup = SobolevSetup(JacobiParams(alpha, 0), j, MassSequence(MassKind.PLAIN, 1, 1))
            assert limit_coeffs(setup).b.tolist() == exact, (alpha, j)

    def test_frozen_values(self):
        for name, ref in TRUE_LIMIT_COEFFS.items():
            lf = limit_coeffs(SETUPS[name])
            assert lf.b == pytest.approx(ref, abs=2e-10)

    def test_critical_interpolates_between_regimes(self):
        # knife-edge coefficients approach the neighbouring regimes at rates
        # O(M/G) as M -> 0 and O(G/M) as M -> infinity (G ~ 1083 here)
        a, b, j = -0.9, -0.9, 3
        tiny = limit_coeffs(_critical_setup(a, b, j, 1e-8)).b
        assert np.max(np.abs(tiny - np.array([1.0, 0, 0, 0, 0]))) <= 1e-6
        sub_setup = SobolevSetup(JacobiParams(a, b), j,
                                 MassSequence(MassKind.PLAIN, 1.0, 1.0))
        sub = limit_coeffs(sub_setup).b
        for M, tol in ((1e8, 3e-5), (1e10, 1e-6)):
            huge = limit_coeffs(_critical_setup(a, b, j, M)).b
            assert np.max(np.abs(huge - sub)) <= tol


class TestLimitEval:
    def test_value_at_origin(self, tabulated_setup):
        lf = limit_coeffs(tabulated_setup)
        expect = lf.b[0] / math.exp(log_gamma(lf.alpha + 1.0))
        assert limit_eval(lf, 0.0) == pytest.approx(expect, rel=1e-12)

    def test_small_argument_branch_is_continuous(self, critical_big):
        lf = limit_coeffs(critical_big)
        below = limit_eval(lf, 9.9e-5)
        above = limit_eval(lf, 1.01e-4)
        assert below == pytest.approx(above, rel=1e-6)

    def test_supercritical_equals_classical_form(self, supercritical):
        lf = limit_coeffs(supercritical)
        for x in np.linspace(0.05, 18.0, 60):
            ref = (x / 2.0) ** -3.0 * bessel_j(3.0, x)
            assert abs(limit_eval(lf, x) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_array_matches_scipy_terms(self, tabulated_setup):
        # the error is measured against the sum of |terms| at the point plus
        # its largest value on the grid: a one-term function has zeros, where
        # any pointwise relative error is unbounded
        lf = limit_coeffs(tabulated_setup)
        xs = np.concatenate([[1e-6, 5e-5, 9.9e-5], np.linspace(1e-3, 40.0, 4000)])
        i = np.arange(len(lf.b))[:, None]
        terms = (lf.b[:, None] * 2.0 ** i * (0.5 * xs) ** -lf.alpha
                 * jv(lf.alpha + 2.0 * i, xs))
        size = np.abs(terms).sum(axis=0)
        err = np.abs(limit_eval(lf, xs) - terms.sum(axis=0))
        assert np.all(err <= 1e-12 * (size + size.max()))
        assert limit_eval(lf, float(xs[2000])) == limit_eval(lf, xs)[2000]

    @pytest.mark.parametrize("alpha", [60, 100])
    @pytest.mark.parametrize("j", [0, 3])
    def test_high_alpha_against_mpmath(self, alpha, j):
        # (x/2)^(-alpha) and J_{alpha+2i} apart leave the double range
        # (1e330 at alpha = 100, x = 1e-3); the limit function is ~1e-160
        setup = SobolevSetup(JacobiParams(Fraction(alpha), Fraction(0)), j,
                             MassSequence(MassKind.PLAIN, 1, Fraction(1)))
        lf = limit_coeffs(setup)
        for x in (0.0, 1e-6, 1e-3, 0.5, 5.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = limit_eval(lf, x)
            ref = limit_value(lf, x)
            assert abs(got - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("name", ["critical-small-mass", "critical-big-mass"])
    def test_critical_curve_against_mpmath(self, name):
        # the mh-curve grid of the figures, where the limit is near 1; the
        # ascending series summed up to x = 14 was 9.3e-13 off
        lf = limit_coeffs(SETUPS[name])
        xs = np.linspace(0.0, 18.0, 361)
        ref = np.array([limit_value(lf, x) for x in xs])
        assert np.max(np.abs(limit_eval(lf, xs) - ref)) <= 1e-14

    def test_negative_argument_rejected(self, supercritical):
        with pytest.raises(ValueError):
            limit_eval(limit_coeffs(supercritical), -0.5)


class TestOrderZeroIdentity:
    def test_specific_point(self):
        assert order_zero_identity_residual(0, 0, 1, 5.0) <= 1e-10

    @pytest.mark.parametrize("abM", [(0.0, 0.0, 1.0), (0.7, -0.3, 2.3),
                                     (-0.5, 0.25, 10.0)])
    def test_grid(self, abM):
        a, b, M = abM
        for x in np.linspace(0.1, 30.0, 90):
            assert order_zero_identity_residual(a, b, M, x) <= 1e-9

    def test_array_argument(self):
        xs = np.linspace(0.1, 30.0, 90)
        resid = order_zero_identity_residual(0.7, -0.3, 2.3, xs)
        assert resid.shape == xs.shape
        assert resid[17] == order_zero_identity_residual(0.7, -0.3, 2.3, xs[17])
        with pytest.raises(ValueError):
            order_zero_identity_residual(0.0, 0.0, 1.0, np.array([1.0, 0.0]))

    def test_vanishing_mass_degenerates_gracefully(self):
        for x in (0.5, 3.0, 12.0):
            assert order_zero_identity_residual(0.3, 0.1, 1e-8, x) <= 1e-6
