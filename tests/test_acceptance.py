"""Acceptance suite: one test (or test group) per release criterion.

Each criterion prints a PASS line with its measured worst case.  Criteria
whose literal targets are printed cells proven inconsistent in
test_golden_audit carry strict xfail companions: the literal comparison is
executed and must keep failing for the documented reason; the reproducible
part of the criterion is asserted normally.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from reference_values import TRUE_TABLES

from sobolev_mh import golden
from sobolev_mh import verify as verify_mod
from sobolev_mh.asymptotics import critical_mass_threshold, limit_coeffs
from sobolev_mh.presets import SETUPS
from sobolev_mh.sobolev import connection_coeffs
from sobolev_mh.zeros import convergence_table, sobolev_zeros

FAST_DEGREES = (150, 250)


def _ok(criterion, detail):
    print(f"PASS {criterion}: {detail}")


@pytest.fixture(scope="module")
def fast_tables():
    t0 = time.perf_counter()
    tables = {name: convergence_table(SETUPS[name], FAST_DEGREES, 4)
              for name in sorted(SETUPS)}
    return tables, time.perf_counter() - t0


# -- criterion 1: raw zeros of the supercritical experiment ------------------

def test_criterion_1_table1_fast(fast_tables):
    tables, elapsed = fast_tables
    tb = tables["supercritical"]
    printed = golden.TABLES["table1"]
    worst = 0.0
    for row in tb.rows:
        for pos, ref in enumerate(printed.rows[row.n]):
            if (row.n, pos) in printed.flagged_cells:
                continue
            worst = max(worst, abs(row.raw[pos] - ref))
    assert worst <= 1e-6
    assert elapsed < 10.0, f"degree<=250 table computation took {elapsed:.1f}s"
    _ok("criterion-1",
        f"table1 n in {{150,250}} worst |err|={worst:.2e} <= 1e-6, "
        f"all fast tables in {elapsed:.1f}s < 10s")


@pytest.mark.xfail(strict=True,
                   reason="printed cell (n=250, 2nd zero) is one final-digit "
                          "unit high; its own scaled companion pins the true "
                          "value 1.3e-6 away (test_golden_audit)")
def test_criterion_1_flagged_cell_literal(fast_tables):
    tables, _ = fast_tables
    row = next(r for r in tables["supercritical"].rows if r.n == 250)
    assert abs(row.raw[1] - 0.999254) <= 1e-6


@pytest.mark.slow
def test_criterion_1_degree_500():
    tb = convergence_table(SETUPS["supercritical"], [500], 4)
    printed = golden.TABLES["table1"].rows[500]
    worst = float(np.max(np.abs(tb.rows[0].raw - np.asarray(printed))))
    assert worst <= 1e-6
    _ok("criterion-1-slow", f"table1 n=500 worst |err|={worst:.2e} <= 1e-6")


# -- criterion 2: scaled zeros and limit of the supercritical experiment -----

def test_criterion_2_table2(fast_tables):
    tables, _ = fast_tables
    tb = tables["supercritical"]
    printed = golden.TABLES["table2"]
    worst = max(abs(row.scaled[pos] - ref)
                for row in tb.rows
                for pos, ref in enumerate(printed.rows[row.n]))
    assert worst <= 5e-4
    worst_lim = float(np.max(np.abs(tb.limit - np.asarray(printed.limit))))
    assert worst_lim <= 1e-4
    _ok("criterion-2", f"table2 rows worst={worst:.2e} <= 5e-4, "
                       f"limit worst={worst_lim:.2e} <= 1e-4")


@pytest.mark.slow
def test_criterion_2_degree_500():
    tb = convergence_table(SETUPS["supercritical"], [500], 4)
    worst = float(np.max(np.abs(tb.rows[0].scaled
                                - np.asarray(golden.TABLES["table2"].rows[500]))))
    assert worst <= 5e-4
    _ok("criterion-2-slow", f"table2 n=500 worst={worst:.2e} <= 5e-4")


# -- criterion 3: subcritical experiment --------------------------------------

def test_criterion_3_outside_and_limit(fast_tables):
    tables, _ = fast_tables
    assert sobolev_zeros(SETUPS["subcritical"], 250).outside_count == 1
    tb = tables["subcritical"]
    y1 = next(r for r in tb.rows if r.n == 250).raw[0]
    assert y1 > 1.0
    worst = float(np.max(np.abs(tb.limit
                                - np.array((7.64622, 11.4432, 14.9699)))))
    assert worst <= 1e-4
    _ok("criterion-3", f"largest zero {y1:.6f} > 1 (outside), "
                       f"limit zeros worst={worst:.2e} <= 1e-4")


@pytest.mark.xfail(strict=True,
                   reason="printed 1.0016 comes from a run with the mass "
                          "~n^12 smaller than stated; the true largest zero "
                          "at the stated mass is 1.000701 (test_golden_audit)")
def test_criterion_3_largest_zero_value_literal(fast_tables):
    tables, _ = fast_tables
    y1 = next(r for r in tables["subcritical"].rows if r.n == 250).raw[0]
    assert abs(y1 - 1.0016) <= 1e-4


# -- criterion 4: critical experiment, small mass -----------------------------

def test_criterion_4_structure_and_threshold(fast_tables):
    tables, _ = fast_tables
    tb = tables["critical-small-mass"]
    for row in tb.rows:
        assert np.all(row.raw < 1.0)
    V = critical_mass_threshold(Fraction(-9, 10), Fraction(-9, 10), 3)
    assert V == pytest.approx(1119.0037947, rel=1e-5)
    assert float(SETUPS["critical-small-mass"].mass.M) <= V
    # reproducible replacement for the flagged printed rows
    for row in tb.rows:
        np.testing.assert_allclose(
            row.scaled, TRUE_TABLES["critical-small-mass"]["scaled"][row.n],
            atol=1e-6)
    np.testing.assert_allclose(tb.limit,
                               TRUE_TABLES["critical-small-mass"]["limit"],
                               atol=1e-6)
    _ok("criterion-4", f"all zeros < 1 at n in {{150,250}}; "
                       f"V={V:.7f} within 1e-5; mass 5 <= V; "
                       f"recomputed rows and limit anchored")


@pytest.mark.xfail(strict=True,
                   reason="printed scaled rows equal the zero-mass classical "
                          "zeros, not the stated-mass zeros (test_golden_audit)")
def test_criterion_4_scaled_rows_literal(fast_tables):
    tables, _ = fast_tables
    tb = tables["critical-small-mass"]
    printed = golden.TABLES["table6"]
    worst = max(abs(row.scaled[pos] - ref)
                for row in tb.rows
                for pos, ref in enumerate(printed.rows[row.n]))
    assert worst <= 5e-4


@pytest.mark.xfail(strict=True,
                   reason="printed limit row equals the zeros of the "
                          "miscopied coefficient recursion (test_golden_audit)")
def test_criterion_4_limit_row_literal(fast_tables):
    tables, _ = fast_tables
    worst = float(np.max(np.abs(
        tables["critical-small-mass"].limit
        - np.array((0.648561, 4.01985, 7.19169, 10.3446)))))
    assert worst <= 1e-4


# -- criterion 5: critical experiment, large mass ----------------------------

def test_criterion_5_outside_fact(fast_tables):
    tables, _ = fast_tables
    assert sobolev_zeros(SETUPS["critical-big-mass"], 150).outside_count == 1
    tb = tables["critical-big-mass"]
    y1 = next(r for r in tb.rows if r.n == 150).raw[0]
    assert y1 > 1.0
    V = critical_mass_threshold(Fraction(-9, 10), Fraction(-9, 10), 3)
    assert float(SETUPS["critical-big-mass"].mass.M) > V
    for row in tb.rows:
        np.testing.assert_allclose(
            row.scaled, TRUE_TABLES["critical-big-mass"]["scaled"][row.n],
            atol=1e-6)
    np.testing.assert_allclose(tb.limit,
                               TRUE_TABLES["critical-big-mass"]["limit"],
                               atol=1e-6)
    _ok("criterion-5", f"largest zero {y1:.6f} > 1 (outside) at n=150; "
                       f"mass 1e6 > V; recomputed rows and limit anchored")


@pytest.mark.xfail(strict=True,
                   reason="printed 1.00042 matches no reproducible run at the "
                          "stated parameters; the true value is 1.000802 "
                          "(test_golden_audit)")
def test_criterion_5_largest_zero_value_literal(fast_tables):
    tables, _ = fast_tables
    y1 = next(r for r in tables["critical-big-mass"].rows if r.n == 150).raw[0]
    assert abs(y1 - 1.00042) <= 1e-4


@pytest.mark.xfail(strict=True,
                   reason="printed limit row equals the miscopied recursion "
                          "evaluated at mass 1e5 instead of the stated 1e6 "
                          "(test_golden_audit)")
def test_criterion_5_limit_row_literal(fast_tables):
    tables, _ = fast_tables
    worst = float(np.max(np.abs(tables["critical-big-mass"].limit
                                - np.array((0.903528, 5.34057, 9.07889)))))
    assert worst <= 1e-4


# -- criterion 6: structural property battery --------------------------------

def test_criterion_6_property_battery():
    props = verify_mod.run_properties()
    for p in props:
        assert p.status == "pass", f"{p.name}: worst={p.worst:.3e} > {p.bound:.1e}"
        print(f"  {p.name}: worst={p.worst:.3e} (bound {p.bound:.1e})")
    _ok("criterion-6", f"{len(props)} structural properties hold")


# -- criterion 7: coefficient convergence at degree 4000 ---------------------

def test_criterion_7_connection_convergence():
    worst = 0.0
    for name in sorted(SETUPS):
        s = SETUPS[name]
        diff = float(np.max(np.abs(connection_coeffs(s, 4000)
                                   - limit_coeffs(s).b)))
        worst = max(worst, diff)
    assert worst <= 5e-2
    _ok("criterion-7", f"connection coefficients at n=4000 within "
                       f"{worst:.2e} <= 5e-2 of their limits")


# -- criterion 8: fast verify wall clock --------------------------------------

def test_criterion_8_verify_fast_under_budget():
    t0 = time.perf_counter()
    result = verify_mod.run(fast=True)
    elapsed = time.perf_counter() - t0
    assert result.ok
    assert elapsed < 60.0, f"fast verify took {elapsed:.1f}s"
    n_pass = sum(1 for c in result.cells if c.status == "pass")
    n_flag = sum(1 for c in result.cells if c.status == "flagged")
    _ok("criterion-8", f"verify fast: {n_pass} strict cells pass, "
                       f"{n_flag} flagged, {len(result.properties)} properties, "
                       f"{elapsed:.1f}s < 60s")
