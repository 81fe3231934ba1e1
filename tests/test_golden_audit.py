"""Numerical audit of the flagged reference-table cells.

Every cell flagged in sobolev_mh.golden is pinned down here: either the
printed value contradicts its own companion table beyond print precision,
or the run that produced it can be reproduced exactly with a perturbed
parameter (a rescaled mass, a zero mass, a miscopied coefficient
recursion, a tenfold-smaller mass limit).  These tests are what justifies
excluding those cells from hard verification.
"""

import math

import numpy as np
import pytest

from reference_values import TRUE_TABLES

from sobolev_mh import golden
from sobolev_mh.asymptotics import classify_regime, limit_coeffs
from sobolev_mh.jacobi import solve_connection
from sobolev_mh.presets import SETUPS
from sobolev_mh.sobolev import (
    MassKind,
    MassSequence,
    SobolevSetup,
    connection_coeffs,
    mass,
)
from sobolev_mh.special_functions import log_gamma
from sobolev_mh.zeros import convergence_table, limit_zeros, sobolev_zeros
from sobolev_mh.asymptotics import LimitFunction


def _miscopied_limit_function(alpha, beta, j, M):
    # the coefficient recursion with the sign of the Gamma^2 block flipped,
    # exactly as printed in the source display
    a, b = float(alpha), float(beta)
    G = math.exp(2.0 * log_gamma(a + j + 1)
                 + (a + b + 2.0 * j + 1.0) * math.log(2.0)) * (a + 2.0 * j + 1.0)

    i = np.arange(j + 2.0)
    lead = (M * (i - j) - G * (a + j + i + 1.0)) / ((a + j + i + 1.0) * (M + G))
    # 2^i Gamma(a+k+1)/Gamma(a+k+i+1), the limit matrix of the recursion
    i, k = i[:, None], i
    entry = np.exp(i * math.log(2.0) + log_gamma(a + k + 1.0) - log_gamma(a + k + i + 1.0))
    regime = classify_regime(2 * (a + 2 * j + 1), a, j)
    return LimitFunction(alpha=a, b=solve_connection(lead, entry), regime=regime)


class TestTable1Cell:
    def test_scaled_companion_pins_the_raw_cell(self):
        # the scaled table cell 9.66386 determines the raw zero far more
        # precisely than the raw table prints it
        y2 = TRUE_TABLES["supercritical"]["raw"][250][1]
        u2 = 250.0 * math.sqrt(2.0 * (1.0 - y2))
        assert abs(u2 - 9.66386) <= 2e-5          # matches the scaled print
        assert 1e-6 < abs(y2 - 0.999254) < 2e-6   # raw print is one unit high

    def test_printed_pair_is_mutually_exclusive(self):
        # no value satisfies both printed cells at the stated tolerances
        lo, hi = 0.999254 - 1e-6, 0.999254 + 1e-6
        u_hi = 250.0 * math.sqrt(2.0 * (1.0 - lo))
        assert u_hi < 9.66386 - 5e-4


class TestTables34MassScale:
    def test_rescaled_mass_reproduces_printed_rows(self):
        # mass * n^-12 lands within ~0.3% of every printed cell and flips the
        # largest zero back inside at degree 150, exactly as the raw table
        # shows; the stated mass is two to three orders of magnitude further
        # away (next test), which pins the provenance
        base = SETUPS["subcritical"]
        table4 = golden.TABLES["table4"]
        for n in (150, 250):
            custom = {m: mass(base.mass, m) * m**-12.0 for m in range(1, n + 1)}
            slipped = SobolevSetup(
                params=base.params, j=base.j,
                mass=MassSequence(MassKind.CUSTOM, 1.0, base.mass.gamma,
                                  custom_values=custom))
            # the printed rows leave out the largest zero at both degrees, by
            # the regime; a row here leaves it out only where it is above 1
            tb = convergence_table(slipped, [n], 4)
            np.testing.assert_allclose(tb.rows[0].scaled[-3:], table4.rows[n],
                                       rtol=5e-3)
            zs = sobolev_zeros(slipped, n)
            if n == 150:
                assert zs.zeros[0] < 1.0
                assert abs(zs.zeros[0] - 0.999286) <= 5e-5
            else:
                assert zs.zeros[0] > 1.0

    def test_stated_mass_is_far_from_printed_rows(self):
        table4 = golden.TABLES["table4"]
        for n in (150, 250):
            true_row = np.asarray(TRUE_TABLES["subcritical"]["scaled"][n])
            assert np.min(np.abs(true_row - np.asarray(table4.rows[n]))) > 2e-2


class TestTables56ZeroMass:
    @pytest.mark.parametrize("n", [150, 250])
    def test_classical_rows_match_print(self, n):
        base = SETUPS["critical-small-mass"]
        classical = SobolevSetup(
            params=base.params, j=base.j,
            mass=MassSequence(MassKind.PLAIN, 0.0, base.mass.gamma))
        tb = convergence_table(classical, [n], 4)
        np.testing.assert_allclose(tb.rows[0].scaled,
                                   golden.TABLES["table6"].rows[n], atol=6e-5)

    @pytest.mark.slow
    def test_degree_500_row_has_one_transposed_cell(self):
        base = SETUPS["critical-small-mass"]
        classical = SobolevSetup(
            params=base.params, j=base.j,
            mass=MassSequence(MassKind.PLAIN, 0.0, base.mass.gamma))
        tb = convergence_table(classical, [500], 4)
        printed = golden.TABLES["table6"].rows[500]
        diffs = np.abs(tb.rows[0].scaled - np.asarray(printed))
        assert np.all(diffs[1:] <= 6e-5)
        # 0.64835 printed as 0.64853
        assert 1e-4 < diffs[0] < 3e-4
        assert abs(tb.rows[0].scaled[0] - 0.64835) <= 1e-5

    def test_stated_mass_rows_differ_beyond_tolerance(self):
        for n in (150, 250):
            true_row = np.asarray(TRUE_TABLES["critical-small-mass"]["scaled"][n])
            printed = np.asarray(golden.TABLES["table6"].rows[n])
            assert np.min(np.abs(true_row - printed)) > 5e-4


class TestCriticalLimitRows:
    def test_table6_limit_equals_miscopied_recursion_zeros(self):
        lf = _miscopied_limit_function(-0.9, -0.9, 3, 5.0)
        zs = limit_zeros(lf, 4)
        np.testing.assert_allclose(zs, golden.TABLES["table6"].limit, atol=6e-5)
        true_lim = np.asarray(TRUE_TABLES["critical-small-mass"]["limit"])
        assert np.min(np.abs(true_lim - np.asarray(golden.TABLES["table6"].limit))) \
            > 1e-3

    def test_table8_limit_is_tenfold_smaller_mass(self):
        # printed caption says mass limit 1e6; the printed zeros match the
        # miscopied recursion evaluated at 1e5 to every digit
        lf = _miscopied_limit_function(-0.9, -0.9, 3, 1e5)
        zs = limit_zeros(lf, 3)
        np.testing.assert_allclose(zs, golden.TABLES["table8"].limit, atol=1e-5)
        stated = _miscopied_limit_function(-0.9, -0.9, 3, 1e6)
        zs_stated = limit_zeros(stated, 3)
        assert np.min(np.abs(zs_stated - np.asarray(golden.TABLES["table8"].limit))) \
            > 3e-3
        true_lim = np.asarray(TRUE_TABLES["critical-big-mass"]["limit"])
        assert np.min(np.abs(true_lim - np.asarray(golden.TABLES["table8"].limit))) \
            > 4e-3

    def test_finite_degree_coefficients_reject_miscopied_signs(self):
        # the connection coefficients of the actual polynomials converge to
        # the implemented limit and stay O(1) away from the printed recursion
        s = SETUPS["critical-small-mass"]
        b_fin = connection_coeffs(s, 1500)
        b_true = limit_coeffs(s).b
        b_misc = _miscopied_limit_function(-0.9, -0.9, 3, 5.0).b
        assert np.max(np.abs(b_fin - b_true)) <= 5e-4
        assert np.max(np.abs(b_fin - b_misc)) > 1.0


class TestTables78MutualContradiction:
    def test_printed_pair_disjoint_at_degree_500(self):
        # raw table prints the third zero as 0.999928; the scaled table
        # prints 5.58651 for the same zero; the implied intervals do not meet
        y_lo, y_hi = 0.999928 - 5e-7, 0.999928 + 5e-7
        u_lo = 500.0 * math.sqrt(2.0 * (1.0 - y_hi))
        assert u_lo > 5.58651 + 5e-4

    def test_true_rows_are_regression_anchored(self):
        # the reproducible values for this experiment come from the frozen
        # recomputation, already asserted in test_zeros; here just confirm
        # they disagree with both printed sources
        true_row = np.asarray(TRUE_TABLES["critical-big-mass"]["scaled"][250])
        printed8 = np.asarray(golden.TABLES["table8"].rows[250])
        assert np.min(np.abs(true_row - printed8)) > 5e-4


def test_every_flagged_cell_is_justified():
    # each flagged table carries a note, and no unflagged cell is left with
    # a failing comparison (the verify job enforces the latter end-to-end)
    for t in golden.TABLES.values():
        if t.flagged_rows or t.flagged_cells or t.flagged_limit:
            assert t.note
