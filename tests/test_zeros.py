import ast
import itertools
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.special import jn_zeros

from mp_oracle import SobolevOracle, coeff_error, exact_limit_coeffs, series_roots
from mp_oracle import limit_zeros as mp_limit_zeros
from reference_values import TRUE_TABLES

from sobolev_mh import asymptotics, kernels
from sobolev_mh.asymptotics import (
    LimitFunction,
    RegimeKind,
    critical_mass_threshold,
    limit_coeffs,
)
from sobolev_mh.errors import NumericError
from sobolev_mh.jacobi import JacobiParams, JacobiSeries, clenshaw_eval
from sobolev_mh.presets import SETUPS
from sobolev_mh.sobolev import (
    MassKind,
    MassSequence,
    SobolevSetup,
    q_deriv_at_one,
    sobolev_polynomial,
)
from sobolev_mh.zeros import (
    _LADDER,
    _bracket_grid,
    _brackets,
    convergence_table,
    limit_zeros,
    sobolev_zeros,
)

ZERO_MASS_LEGENDRE = SobolevSetup(JacobiParams(0.0, 0.0), 3,
                                  MassSequence(MassKind.PLAIN, 0.0, 2.0))


def _comrade_zeros(series):
    """Zeros of a Jacobi series as eigenvalues of its comrade matrix.

    In the orthonormal basis p_i = P_i / sqrt(h_i) the series is a multiple
    of p_n + sum_{i<n} e_i p_i; its zeros are the eigenvalues of the n x n
    Jacobi matrix of the weight with the last row corrected by -b_n e
    (Barnett 1975; Boyd, SIAM Rev. 55 (2013) 375).
    """
    a, b = series.params.a, series.params.b
    c = series.coeffs
    n = len(c) - 1
    i = np.arange(1, n + 1)
    log_h = np.empty(n + 1)
    log_h[0] = ((a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0)
                + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0))
    log_h[1:] = [(a + b + 1.0) * math.log(2.0) - math.log(2.0 * k + a + b + 1.0)
                 + math.lgamma(k + a + 1.0) + math.lgamma(k + b + 1.0)
                 - math.lgamma(k + 1.0) - math.lgamma(k + a + b + 1.0) for k in i]
    e = c[:n] / c[n] * np.exp(0.5 * (log_h[:n] - log_h[n]))
    k = np.arange(n)
    s = 2.0 * k + a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = (b * b - a * a) / (s * (s + 2.0))
    diag[0] = (b - a) / (a + b + 2.0)
    t = 2.0 * i + a + b
    off = np.sqrt(4.0 * i * (i + a) * (i + b) * (i + a + b)
                  / (t * t * (t + 1.0) * (t - 1.0)))
    # k = 1 with the (1 + a + b) factor cancelled, valid at a + b = -1
    off[0] = math.sqrt(4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b)))
    m = np.diag(diag) + np.diag(off[:n - 1], 1) + np.diag(off[:n - 1], -1)
    m[n - 1, :] -= off[n - 1] * e
    z = np.linalg.eigvals(m)
    return z[np.argsort(-z.real)]


@pytest.mark.parametrize("n", [25, 150])
def test_zeros_match_comrade_eigenvalues(tabulated_setup, n):
    ref = _comrade_zeros(sobolev_polynomial(tabulated_setup, n))
    assert np.max(np.abs(ref.imag)) <= 1e-12
    zs = sobolev_zeros(tabulated_setup, n)
    assert np.max(np.abs(zs.zeros - ref.real)) <= 1e-12


def test_end_zeros_match_the_60_digit_roots_of_the_same_series(tabulated_setup):
    # the reference is the binary64 series itself, summed in 60 digits, so
    # the error is the refine's final step and Clenshaw's rounding alone; the
    # bound sits just above the worst error measured, 7.6e-17 relative to
    # max(1, |z|) with the secant refine and the former Newton one alike
    n = 150
    zs = sobolev_zeros(tabulated_setup, n).zeros
    ends = np.concatenate([zs[:8], zs[-8:]])
    ref = series_roots(sobolev_polynomial(tabulated_setup, n), ends)
    err = [float(abs(mp.mpf(z) - r)) / max(1.0, abs(z)) for z, r in zip(ends, ref)]
    assert max(err) <= 8e-17


@pytest.mark.parametrize("alpha, beta, gamma, kind, M, n", [
    ("4", "2/5", "5/2", MassKind.PLAIN, "11909/100", 500),
    ("73/10", "12/5", "996/125", MassKind.PLAIN, "265717/100", 500),
    ("41/10", "24/5", "969/500", MassKind.PLAIN, "66/25", 500),
    pytest.param("22/5", "31/10", "1431/250", MassKind.POLY_RATIO, "127/100", 5000,
                 marks=pytest.mark.slow)])
def test_largest_zero_within_an_ulp_of_one_matches_the_60_digit_root(alpha, beta, gamma,
                                                                     kind, M, n):
    # j = 0, subcritical: the largest zero lies within an ulp of 1, where one
    # ulp moves Q by 2.5e-3; a bracket that ended at 1e-13 wide returned it
    # 3.8e-14 (n = 500) and 4.9e-14 (n = 5000) below the root.  Q(1) > 0 in
    # closed form puts the root at or below 1, the top of the grid; the
    # binary64 series has its root 2.8e-16 above 1 at alpha = 73/10
    setup = SobolevSetup(JacobiParams(Fraction(alpha), Fraction(beta)), 0,
                         MassSequence(kind, Fraction(M), Fraction(gamma)))
    assert q_deriv_at_one(setup, n, 0) > 0.0
    top = sobolev_zeros(setup, n).zeros[0]
    ref = min(series_roots(sobolev_polynomial(setup, n), [top])[0], 1)
    assert float(abs(mp.mpf(top) - ref)) <= 2.2e-16


def _counted_refine(setup, n, monkeypatch):
    """Scan the degree-n zero grid; return the roots, the brackets and the
    Clenshaw passes the refine took."""
    series = sobolev_polynomial(setup, n)
    grid, vals = _brackets(series, _bracket_grid(setup, n), q_deriv_at_one(setup, n, 0))
    sgn = np.sign(vals)
    idx = np.flatnonzero(sgn[:-1] * sgn[1:] < 0.0)
    assert len(idx) == n and not (vals == 0.0).any()

    passes = 0
    clenshaw = kernels.clenshaw_batch

    def counted(*args):
        nonlocal passes
        passes += 1
        return clenshaw(*args)

    monkeypatch.setattr(kernels, "clenshaw_batch", counted)
    # the value closure the zero extraction passes; clenshaw_eval looks the
    # Clenshaw kernel up at call time, so each pass is counted
    roots = kernels.grid_roots(lambda x: clenshaw_eval(series, x), grid, vals)
    monkeypatch.undo()
    return roots, grid[idx], grid[idx + 1], passes


def test_refine_needs_few_clenshaw_passes(tabulated_setup, monkeypatch):
    n = 250
    roots, lo, hi, passes = _counted_refine(tabulated_setup, n, monkeypatch)
    assert passes <= 16
    assert np.all((lo <= roots) & (roots <= hi))
    assert np.max(np.abs(roots[::-1] - sobolev_zeros(tabulated_setup, n).zeros)) == 0.0


def test_secant_start_refines_in_few_passes(tabulated_setup, monkeypatch):
    # the secant point of a grid bracket is close enough for the secant
    # iteration to converge in 4-5 steps, one Clenshaw pass each
    _, _, _, passes = _counted_refine(tabulated_setup, 250, monkeypatch)
    assert passes <= 5


def _refine_one(f, lo, hi):
    """Refine the one bracket [lo, hi] of f; return the root and the passes."""
    passes = 0

    def counted(x):
        nonlocal passes
        passes += 1
        return f(x)

    lo, hi = np.array([lo]), np.array([hi])
    return kernels.refine_brackets(counted, lo, hi, f(lo), f(hi))[0], passes


@pytest.mark.parametrize("r", [0.3, 0.01, 0.5 + 3e-6, 0.999])
def test_refine_bisects_between_saturated_ends(r):
    # tanh is +-1 to the last bit farther than ~2e-5 from r: a secant
    # through two equal values is not finite, so the step bisects, and one
    # through -1 and 1 is a midpoint; the secant takes over on the slope
    root, passes = _refine_one(lambda x: np.tanh(1e6 * (x - r)), 0.0, 1.0)
    assert abs(root - r) <= 1e-13
    assert passes < kernels._MAX_REFINE


def test_refine_halving_rule_on_a_triple_root():
    # the secant converges only linearly on a triple root; bisecting each
    # step that fails to halve the one before the last keeps it to 59 passes
    # (114 without that rule)
    root, passes = _refine_one(lambda x: (x - 0.3) ** 3, 0.0, 1.0)
    assert abs(root - 0.3) <= 1e-11
    assert passes <= 64 < kernels._MAX_REFINE


def test_refine_start_on_the_zero_is_one_pass():
    # the secant point of a linear function is its zero, and f there is 0
    root, passes = _refine_one(lambda x: x - 0.5, 0.0, 1.0)
    assert root == 0.5 and passes == 1


def _damped_cosine(x):
    # 1.3^theta cos(40.5 theta + 0.3) in theta = arccos x: a damped sinusoid
    theta = np.arccos(x)
    return 1.3 ** theta * np.cos(40.5 * theta + 0.3)


def test_sinusoid_start_of_a_damped_sinusoid_is_its_zero():
    # Prony's fit is exact on a damped sinusoid sampled at equal theta steps,
    # so each start is the zero and its slope the derivative, to rounding
    grid = np.cos(np.linspace(np.pi, 0.0, 83))
    vals = _damped_cosine(grid)
    idx = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0.0)
    start, slope = kernels.sinusoid_starts(grid, vals, idx)
    k = np.arange(41)
    zeros = np.cos(((k + 0.5) * np.pi - 0.3) / 40.5)
    inner = (idx >= 1) & (idx + 2 < len(grid))  # the end brackets lack a neighbour
    assert np.isnan(start[~inner]).all() and np.isnan(slope[~inner]).all()
    ref = np.sort(zeros)[inner]
    assert np.max(np.abs(start[inner] - ref)) <= 1e-13
    h = 1e-7
    dref = (_damped_cosine(ref + h) - _damped_cosine(ref - h)) / (2.0 * h)
    assert np.max(np.abs(slope[inner] / dref - 1.0)) <= 1e-6


def test_sinusoid_start_needs_points_equally_spaced_in_theta():
    # the zero scans run on grids equally spaced in x, and keep the secant start
    grid = np.arange(1e-3, 0.999, 0.02)
    vals = np.sin(30.0 * grid)
    idx = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0.0)
    start, slope = kernels.sinusoid_starts(grid, vals, idx)
    assert len(idx) > 0 and np.isnan(start).all() and np.isnan(slope).all()


def test_model_start_is_not_accepted_without_a_secant_step():
    # from the exact zero and slope of x - 0.3 the model step is below the
    # tolerance, yet a second pass measures the secant step that ends the root
    passes = 0

    def f(x):
        nonlocal passes
        passes += 1
        return x - 0.3

    lo, hi = np.array([0.0]), np.array([1.0])
    root = kernels.refine_brackets(f, lo, hi, lo - 0.3, hi - 0.3,
                                   np.array([0.3 + 4.0 * np.spacing(0.3)]), np.array([1.0]))
    assert passes == 2 and root[0] == 0.3


@pytest.mark.parametrize("n", [500, 2000, 5000])
def test_zero_set_work_is_pinned(tabulated_setup, n, monkeypatch):
    # grid pass and refine together: two grid points per zero gap, then
    # about two refine passes per zero from the sinusoid starts (4.0-4.2 n
    # at n = 2000 and 5000, 4.6-5.5 n at n = 500; 5.8-6.8 n at n = 500 with
    # a step-0.2 grid over the first j + 16 Bessel zeros added to the sweep,
    # 7.9-8.4 n from four points per gap and secant-point starts)
    points = 0
    clenshaw = kernels.clenshaw_batch

    def counted(c, A, B, C, x):
        nonlocal points
        points += np.size(x)
        return clenshaw(c, A, B, C, x)

    monkeypatch.setattr(kernels, "clenshaw_batch", counted)
    sobolev_zeros(tabulated_setup, n)
    assert points <= (5.6 if n == 500 else 5.5) * n


def test_exterior_ladder_rides_in_the_grid_pass(critical_big, monkeypatch):
    # Q(1) < 0: the ladder above 1 is evaluated in the grid's one Clenshaw call
    calls, at_refine = 0, []
    clenshaw, refine = kernels.clenshaw_batch, kernels.refine_brackets

    def counted(*args):
        nonlocal calls
        calls += 1
        return clenshaw(*args)

    def first_refine(*args):
        at_refine.append(calls)
        return refine(*args)

    monkeypatch.setattr(kernels, "clenshaw_batch", counted)
    monkeypatch.setattr(kernels, "refine_brackets", first_refine)
    zs = sobolev_zeros(critical_big, 250)
    assert zs.outside_count == 1 and at_refine == [1]


def test_far_exterior_zero_is_found():
    # the largest zero sits near 2.943, far above 1 at this low degree
    setup = SobolevSetup(JacobiParams(10, 0), 6, MassSequence(MassKind.PLAIN, 1e6, 1))
    series = sobolev_polynomial(setup, 10)
    ref = _comrade_zeros(series)
    assert np.max(np.abs(ref.imag)) <= 1e-12
    zs = sobolev_zeros(setup, 10)
    assert len(zs.zeros) == 10 and zs.outside_count == 1
    assert 2.9 < zs.zeros[0] < 3.0
    assert np.max(np.abs(zs.zeros - ref.real)) <= 1e-12


def test_exterior_ladder_without_sign_change_is_a_numeric_error():
    # -1 - P_1: negative at 1 and decreasing above it
    series = JacobiSeries(JacobiParams(0.0, 0.0), [-1.0, -1.0])
    with pytest.raises(NumericError, match="no sign change"):
        _brackets(series, np.linspace(-1.0, 1.0, 5), -2.0)


@pytest.mark.parametrize("root, grid_len", [(1.0, 5 + 1), (1.0 + _LADDER[10], 5 + 12)])
def test_exact_zero_at_the_grid_top_or_on_a_rung_is_found(root, grid_len):
    # x - root is 0 at the top of the grid or on the tenth ladder rung; the
    # ladder runs to its first positive rung, so the exact zero is flanked
    series = JacobiSeries(JacobiParams(0.0, 0.0), [-root, 1.0])
    grid, vals = _brackets(series, np.linspace(-1.0, 1.0, 5), 1.0 - root)
    assert len(grid) == grid_len and vals[-2] == 0.0 and vals[-1] > 0.0
    roots = kernels.grid_roots(lambda x: clenshaw_eval(series, x), grid, vals)
    assert roots.tolist() == [root]


def test_scan_keeps_values_whose_products_underflow():
    # neighbouring values of 1e-170 sin(x) multiply to 0 in double precision
    roots = kernels._scan_zeros(lambda x: 1e-170 * np.sin(x), 0.02, 10.0, 3)
    assert np.max(np.abs(roots - np.pi * np.arange(1, 4))) <= 1e-13


def test_scan_finds_a_zero_on_a_grid_point():
    z = np.arange(1e-3, 10.0, 0.5)[4]
    roots = kernels._scan_zeros(lambda x: x - z, 0.5, 10.0, 1)
    assert roots.tolist() == [z]


def test_scan_of_an_underflowing_function_is_one_pass_and_an_error():
    # zero on the whole grid: no sign change, and no exact zero between
    # values of opposite sign
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return np.zeros_like(x)

    with pytest.raises(NumericError) as info:
        kernels._scan_zeros(f, 0.02, 10.0, 3)
    assert calls == 1
    assert str(info.value) == "found only 0 of 3 zeros below 10"


SWEEP_ALPHA = (-0.9, 0, 3, 10)


@pytest.mark.parametrize("n", [10, 60, 300])
@pytest.mark.parametrize("alpha", SWEEP_ALPHA)
def test_robustness_sweep(alpha, n, monkeypatch):
    """Every case of the sweep beta in {-1/2, 5}, j in {0, 1, 3, 6}, gamma in
    {1, 12, 40}, M in {1, 1e6} finds n zeros, at most one above 1, on the
    first grid pass and without a RuntimeWarning."""
    passes = 0
    found = kernels.grid_roots

    def counted(f, grid, vals):
        nonlocal passes
        passes += 1
        return found(f, grid, vals)

    monkeypatch.setattr(kernels, "grid_roots", counted)
    for beta, j, gamma, M in itertools.product((-0.5, 5), (0, 1, 3, 6), (1, 12, 40),
                                               (1, 1e6)):
        case = f"alpha={alpha} beta={beta} j={j} gamma={gamma} M={M} n={n}"
        setup = SobolevSetup(JacobiParams(alpha, beta), j,
                             MassSequence(MassKind.PLAIN, M, gamma))
        passes = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            zs = sobolev_zeros(setup, n)
        assert len(zs.zeros) == n, case
        assert zs.outside_count <= 1, case
        assert passes == 1, case


def test_sweep_is_bounded_at_huge_exponents():
    # N = n + (alpha + beta + 1)/2 counts at most 5e5 beyond n: about 1e6
    # sweep points at alpha = 1e10, which still bracket all ten zeros
    setup = SobolevSetup(JacobiParams(1e10, 0), 1, MassSequence(MassKind.PLAIN, 1, 3e10))
    assert len(_bracket_grid(setup, 10)) == 2 * (10 + 500_000 + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zs = sobolev_zeros(setup, 10)
    assert len(zs.zeros) == 10 and np.all(np.diff(zs.zeros) < 0.0)


@pytest.mark.parametrize("alpha", [30, 91, 150])
def test_crowded_zeros_sweep(alpha, monkeypatch):
    """Where (alpha + beta)/2 is large against n the zeros crowd toward -1,
    and the sweep has two points per zero gap of n + (alpha + beta + 1)/2:
    every case of beta in {0, 30, 91}, j in {0, 1, 3}, n in {1, 2, 5, 10,
    20, 60}, gamma in {1, 12, 400}, plain M in {1, 1e6} finds n zeros, at
    most one above 1, on the one grid pass and without a warning."""
    passes = 0
    found = kernels.grid_roots

    def counted(f, grid, vals):
        nonlocal passes
        passes += 1
        return found(f, grid, vals)

    monkeypatch.setattr(kernels, "grid_roots", counted)
    for beta, j, n, gamma, M in itertools.product((0, 30, 91), (0, 1, 3),
                                                  (1, 2, 5, 10, 20, 60), (1, 12, 400),
                                                  (1, 1e6)):
        case = f"alpha={alpha} beta={beta} j={j} gamma={gamma} M={M} n={n}"
        setup = SobolevSetup(JacobiParams(alpha, beta), j,
                             MassSequence(MassKind.PLAIN, M, gamma))
        passes = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zs = sobolev_zeros(setup, n)
        assert len(zs.zeros) == n, case
        assert zs.outside_count <= 1, case
        assert passes == 1, case


def _plain_setup(alpha, beta, j, gamma):
    return SobolevSetup(JacobiParams(alpha, beta), j, MassSequence(MassKind.PLAIN, 1, gamma))


def _assert_zero_set(setup, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zs = sobolev_zeros(setup, n)
    assert len(zs.zeros) == n
    assert zs.outside_count <= 1


@pytest.mark.parametrize("alpha", [Fraction(-9, 10), 0, 3, 10])
def test_near_critical_threshold_sweep(alpha):
    """Every case of beta in {-1/2, 5}, j in {1, 3, 8}, critical gamma and
    M = V {0.99, 1.01} around the threshold V finds n in {1, 20, 150}
    zeros, at most one above 1, on the one grid pass and without a warning."""
    for beta, j in itertools.product((Fraction(-1, 2), 5), (1, 3, 8)):
        V = critical_mass_threshold(alpha, beta, j)
        for factor, n in itertools.product((0.99, 1.01), (1, 20, 150)):
            setup = SobolevSetup(JacobiParams(alpha, beta), j, MassSequence(
                MassKind.PLAIN, factor * V, 2 * (alpha + 2 * j + 1)))
            _assert_zero_set(setup, n)


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_degree_one_zero_is_the_linear_root(name):
    # Q_1 = c_0 + (A_0 x + B_0): its Clenshaw derivative is the degree-0 series A_0
    setup = SETUPS[name]
    c = sobolev_polynomial(setup, 1).coeffs
    A, B, _ = kernels.jacobi_recurrence(2, setup.params.a, setup.params.b)
    assert sobolev_zeros(setup, 1).zeros[0] == -(c[0] + B[0]) / A[0]


@pytest.mark.parametrize("beta, j", [(0, 0), (0, 10), (100, 0), (100, 10)])
def test_high_alpha_degree_3000(beta, j):
    # the kernel sums of alpha = 100 at n = 3000 are not doubles; their logs are
    _assert_zero_set(_plain_setup(100, beta, j, 1), 3000)


def test_high_alpha_coefficients_match_mpmath():
    s = _plain_setup(100, 0, 20, 1)
    ref = SobolevOracle(s, 500, dps=60).coeffs(500)
    assert coeff_error(sobolev_polynomial(s, 500).coeffs, ref) <= 1e-11


@pytest.mark.slow
@pytest.mark.parametrize("n", [500, 3000])
@pytest.mark.parametrize("alpha", [0, 20, 50, 100])
def test_overflow_sweep(alpha, n):
    """Every case of beta in {0, 20, 50, 100}, j in {0, 5, 10}, gamma in
    {1, 40}, plain mass M = 1 finds n zeros, at most one above 1, without a
    warning."""
    for beta, j, gamma in itertools.product((0, 20, 50, 100), (0, 5, 10), (1, 40)):
        _assert_zero_set(_plain_setup(alpha, beta, j, gamma), n)


@pytest.mark.slow
@pytest.mark.parametrize("n", [60, 300, 1000])
def test_widened_box_sweep(n):
    """Every case of alpha, beta in {20, 100}, j in {10, 20}, gamma in
    {1, 12, 40}, plain mass M in {1, 1e6} finds n zeros, at most one above
    1, without a warning."""
    for alpha, beta, j, gamma, M in itertools.product((20, 100), (20, 100), (10, 20),
                                                      (1, 12, 40), (1, 1e6)):
        _assert_zero_set(SobolevSetup(JacobiParams(alpha, beta), j,
                                      MassSequence(MassKind.PLAIN, M, gamma)), n)


@pytest.mark.slow
@pytest.mark.parametrize("beta, j", [(0, 0), (100, 10)])
def test_high_alpha_coefficients_degree_3000(beta, j):
    s = _plain_setup(100, beta, j, 1)
    ref = SobolevOracle(s, 3000, dps=60).coeffs(3000)
    assert coeff_error(sobolev_polynomial(s, 3000).coeffs, ref) <= 1e-10


def test_legendre_zeros_match_companion_oracle():
    zs = sobolev_zeros(ZERO_MASS_LEGENDRE, 10)
    c = np.zeros(11)
    c[10] = 1.0
    ref = np.sort(np.polynomial.legendre.legroots(c))[::-1]
    assert np.max(np.abs(zs.zeros - ref)) <= 1e-12
    assert np.max(np.abs(zs.zeros + zs.zeros[::-1])) <= 1e-13  # symmetric


@pytest.mark.parametrize("name", sorted(TRUE_TABLES))
@pytest.mark.parametrize("n", [150, 250])
def test_frozen_rows_fast(name, n):
    ref = TRUE_TABLES[name]
    tb = convergence_table(SETUPS[name], [n], 4)
    assert tb.rows[0].excluded == ref["excluded"]
    np.testing.assert_allclose(tb.rows[0].raw, ref["raw"][n], atol=2e-9, rtol=0)
    np.testing.assert_allclose(tb.rows[0].scaled, ref["scaled"][n], atol=1e-6, rtol=0)
    np.testing.assert_allclose(tb.limit, ref["limit"], atol=1e-8, rtol=0)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(TRUE_TABLES))
def test_frozen_rows_degree_500(name):
    ref = TRUE_TABLES[name]
    tb = convergence_table(SETUPS[name], [500], 4)
    np.testing.assert_allclose(tb.rows[0].raw, ref["raw"][500], atol=2e-9, rtol=0)
    np.testing.assert_allclose(tb.rows[0].scaled, ref["scaled"][500], atol=1e-6,
                               rtol=0)


class TestZeroSetShape:
    @pytest.mark.parametrize("n", [25, 50, 150, 250])
    def test_count_simplicity_location(self, tabulated_setup, n):
        zs = sobolev_zeros(tabulated_setup, n)
        assert len(zs.zeros) == n
        assert zs.outside_count <= 1
        assert np.all(zs.zeros > -1.0)
        asc = zs.zeros[::-1]
        assert np.all(np.diff(asc) > 0)
        interior = asc[asc <= 1.0]
        u = n * np.sqrt(2.0 * (1.0 - interior))
        if len(u) > 1:
            assert np.min(np.abs(np.diff(u))) > 1e-12

    def test_residual_at_reported_zeros(self, critical_small):
        n = 150
        series = sobolev_polynomial(critical_small, n)
        zs = sobolev_zeros(critical_small, n)
        grid = np.cos(np.linspace(0.0, np.pi, 10 * (n + 1)))
        scale = np.max(np.abs(clenshaw_eval(series, grid)))
        resid = np.max(np.abs(clenshaw_eval(series, zs.zeros)))
        assert resid <= 1e-9 * scale

    def test_diagnostic_error_when_bracketing_starved(self, monkeypatch):
        import sobolev_mh.zeros as zmod

        monkeypatch.setattr(zmod, "_bracket_grid",
                            lambda setup, n: np.array([-1.0, 0.0, 1.0]))
        with pytest.raises(NumericError, match="of 40 zeros"):
            sobolev_zeros(SETUPS["supercritical"], 40)


class TestScaledZeros:
    # the scaled zeros are the rows of convergence_table
    def test_increasing_and_outside_reported(self, subcritical):
        row = convergence_table(subcritical, [250], 4).rows[0]
        assert len(row.scaled) == 3 and np.all(np.diff(row.scaled) > 0)
        assert row.raw[0] > 1.0

    def test_reference_row(self, supercritical):
        np.testing.assert_allclose(
            convergence_table(supercritical, [250], 4).rows[0].scaled,
            TRUE_TABLES["supercritical"]["scaled"][250], atol=1e-6)

    def test_count_validation(self, supercritical):
        with pytest.raises(ValueError):
            convergence_table(supercritical, [20], 0)
        with pytest.raises(ValueError):
            convergence_table(supercritical, [20], 21)


class TestLimitZeros:
    def test_supercritical_bessel_values(self, supercritical):
        zs = limit_zeros(limit_coeffs(supercritical), 4)
        np.testing.assert_allclose(zs, (6.38016, 9.76102, 13.0152, 16.2235),
                                   atol=1e-4)

    def test_subcritical_values(self, subcritical):
        zs = limit_zeros(limit_coeffs(subcritical), 3)
        np.testing.assert_allclose(zs, (7.64622, 11.4432, 14.9699), atol=1e-4)

    def test_critical_frozen_values(self, critical_small, critical_big):
        np.testing.assert_allclose(
            limit_zeros(limit_coeffs(critical_small), 4),
            TRUE_TABLES["critical-small-mass"]["limit"], atol=1e-8)
        np.testing.assert_allclose(
            limit_zeros(limit_coeffs(critical_big), 3),
            TRUE_TABLES["critical-big-mass"]["limit"], atol=1e-8)

    def test_zero_mass_limit_row_is_bessel(self):
        tb = convergence_table(
            SobolevSetup(JacobiParams(3.0, 1.0), 3,
                         MassSequence(MassKind.PLAIN, 0.0, 25.0)),
            [25], 4)
        np.testing.assert_allclose(tb.limit, jn_zeros(3, 4), atol=1e-9)


def _high_alpha_limit(alpha, j):
    # subcritical, beta = 0, gamma = 1, plain M = 1
    return limit_coeffs(SobolevSetup(JacobiParams(Fraction(alpha), Fraction(0)), j,
                                     MassSequence(MassKind.PLAIN, 1, Fraction(1))))


@pytest.mark.parametrize("alpha", [50, 100, 154, pytest.param(30, marks=pytest.mark.slow),
                                   pytest.param(70, marks=pytest.mark.slow),
                                   pytest.param(130, marks=pytest.mark.slow),
                                   pytest.param(150, marks=pytest.mark.slow),
                                   pytest.param(160, marks=pytest.mark.slow),
                                   pytest.param(300, marks=pytest.mark.slow)])
@pytest.mark.parametrize("j", [0, 3])
def test_high_alpha_limit_zeros_against_mpmath(alpha, j):
    # the zeros sit above alpha, where the Bessel series cancelled (9.7e-9
    # off at alpha = 30, duplicated zeros from alpha = 45); from alpha ~ 151
    # L = (x/2)^(-alpha) S is subnormal near them, and a scan of L was
    # 1.8e-12 off at alpha = 154, j = 3, and found too few zeros from 155
    lf = _high_alpha_limit(alpha, j)
    ref = mp_limit_zeros(lf, 4)
    assert np.max(np.abs(limit_zeros(lf, 4) - ref) / ref) <= 1e-13


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_preset_limit_zeros_against_mpmath(name):
    # the critical presets have their first limit zero below 1 (0.647, 0.909)
    lf = limit_coeffs(SETUPS[name])
    ref = mp_limit_zeros(lf, 4)
    assert np.max(np.abs(limit_zeros(lf, 4) - ref) / ref) <= 1e-13


@pytest.mark.parametrize("critical", [False, True])
def test_high_order_limit_zeros_against_exact_coefficients(critical):
    # alpha = 30, j = 10: the limit system is ill-conditioned in j, and a
    # double solve printed the fourth zero as 51.0486 (exact: 51.1839), and
    # 48.3191 (exact: 48.3049) in the critical regime at M = G
    alpha, j = 30, 10
    mass = MassSequence(MassKind.PLAIN, 1, Fraction(1))
    sigma = 1
    if critical:
        G = asymptotics._G(float(alpha), 0.0, j)
        mass = MassSequence(MassKind.PLAIN, G, Fraction(2 * (alpha + 2 * j + 1)))
        sigma = Fraction(1, 2)
    lf = limit_coeffs(SobolevSetup(JacobiParams(Fraction(alpha), Fraction(0)), j, mass))
    assert (lf.regime.kind is RegimeKind.CRITICAL) == critical
    exact = [float(v) for v in exact_limit_coeffs(alpha, j, sigma)]
    ref = mp_limit_zeros(LimitFunction(float(alpha), exact, lf.regime), 4)
    assert np.max(np.abs(limit_zeros(lf, 4) - ref) / ref) <= 1e-13


@pytest.mark.parametrize("alpha, M", [(91, 1.0), (100, 1.0), (1, 1e308), (80, 1e273)])
def test_critical_limit_beyond_the_double_range(alpha, M):
    # critical at j = 0: G = (alpha!)^2 2^(alpha+1) (alpha+1) is above the
    # double range at alpha = 91 and 100, and M = 1e308 is against G = 8;
    # sigma = M/(M + G) comes from log G - log M, neither formed.  At
    # alpha = 80, M = 1e273, b_0 = G/(M + G) = 1e-9 puts L's first zero at
    # 5.2e-3, where S = (x/2)^alpha L underflows to 0 (b_0 J_80(1e-3) ~
    # exp(-882)); a scan of S dropped it and listed the next zeros as the first
    mass = MassSequence(MassKind.PLAIN, M, Fraction(2 * (alpha + 1)))
    lf = limit_coeffs(SobolevSetup(JacobiParams(Fraction(alpha), Fraction(0)), 0, mass))
    assert lf.regime.kind is RegimeKind.CRITICAL
    G = math.factorial(alpha) ** 2 * 2 ** (alpha + 1) * (alpha + 1)
    exact = [float(v) for v in exact_limit_coeffs(alpha, 0, Fraction(M) / (Fraction(M) + G))]
    assert np.max(np.abs(lf.b - exact)) <= 2.2e-16 * np.max(np.abs(exact))
    ref = mp_limit_zeros(LimitFunction(float(alpha), exact, lf.regime), 4)
    assert np.max(np.abs(limit_zeros(lf, 4) - ref) / ref) <= 1e-13
    if M == 1e308:
        # sigma rounds to 1: b is the subcritical (0, -1/2) but for b_0 = 1 - sigma
        sub = limit_coeffs(_plain_setup(alpha, 0, 0, 1))
        assert lf.b[1] == sub.b[1] == -0.5 and lf.b[0] == pytest.approx(8e-308, rel=1e-15)


@pytest.mark.parametrize("b", [(1e-3, -1.0), (-1e-3, 1.0)])
def test_limit_zero_where_both_forms_underflow_is_refused(b):
    # alpha = 300: L below x = 2 and S above it underflow up to x ~ 21, and
    # b = (1e-3, -1) puts L's first zero near 13.5, inside that stretch
    lf = LimitFunction(300.0, b, _high_alpha_limit(300, 0).regime)
    with pytest.raises(NumericError, match="underflows near 0 and may change sign"):
        limit_zeros(lf, 3)


@pytest.mark.parametrize("setup, degrees, excluded", [
    # b_0 = -0.657 < 0, yet Q_n(1) > 0 at n = 300 and 1000: the largest zero
    # is inside [-1, 1] and tracks the first limit zero; at n = 3000 it is
    # above 1.  Excluded from every row, it shifted the first two rows
    (SobolevSetup(JacobiParams(Fraction(37, 10), Fraction(49, 5)), 9,
                  MassSequence(MassKind.EXP_RATIONAL, 1, Fraction(713, 20))),
     [300, 1000, 3000], [0, 0, 1]),
    # critical, j = 0, M = 1e308: Q_n(1) > 0 and b_0 = G/(M + G) = 8e-308, so
    # L's first zero is near 1e-153, below the limit row's scan, and the
    # largest zero, which rounds to 1, tends to it
    (SobolevSetup(JacobiParams(1, 0), 0, MassSequence(MassKind.PLAIN, 1e308, 4)),
     [150, 500], [1, 1])], ids=["exterior-zero-inside", "unlisted-limit-zero"])
def test_rows_exclude_their_own_exterior_zero(setup, degrees, excluded):
    tb = convergence_table(setup, degrees, 3)
    for row in tb.rows:
        dist = np.abs(row.scaled[:, None] - tb.limit[None, :])
        assert np.all(np.argmin(dist, axis=1) == np.arange(len(row.scaled))), (
            row.n, row.scaled, tb.limit)
    assert [row.excluded for row in tb.rows] == excluded
    assert len(tb.limit) == 3 - min(excluded)


def test_scan_grid_is_capped():
    evaluated = []
    with pytest.raises(NumericError, match="needs more than 100000 grid points"):
        kernels._scan_zeros(evaluated.append, 0.02, 2000.1, 1)
    assert evaluated == []


@pytest.mark.parametrize("kind", [MassKind.PLAIN, MassKind.POLY_RATIO, MassKind.CUSTOM])
def test_subcritical_zero_mass_excludes_no_zero(kind):
    # M = 0 in the subcritical regime is the classical polynomial, whose
    # largest zero stays in [-1, 1], so the rows pair with the Bessel zeros
    custom = {150: 0.0, 500: 0.0} if kind is MassKind.CUSTOM else None
    setup = SobolevSetup(JacobiParams(1, 0), 2, MassSequence(kind, 0, 3, custom))
    tb = convergence_table(setup, [150, 500], 4)
    assert [row.excluded for row in tb.rows] == [0, 0]
    assert abs(tb.rows[1].scaled[0] - tb.limit[0]) <= 0.01


@pytest.mark.parametrize("alpha", [0, 1, 3, 20])
def test_subcritical_order_zero_rows_line_up_with_the_limit_row(alpha):
    # j = 0 in the subcritical regime gives b_0 = 0: L(0) = 0, and the largest
    # zero tends to 1 faster than 1/n^2, towards L's zero at 0, which the
    # limit row does not list; each scaled zero is nearest its own limit zero
    setup = SobolevSetup(JacobiParams(alpha, 0), 0, MassSequence(MassKind.PLAIN, 1, 1))
    tb = convergence_table(setup, [150, 1000], 3)
    assert [row.excluded for row in tb.rows] == [1, 1]
    for row in tb.rows:
        assert len(row.scaled) == len(tb.limit) == 2
        dist = np.abs(row.scaled[:, None] - tb.limit[None, :])
        assert np.all(np.argmin(dist, axis=1) == np.arange(2)), (row.n, row.scaled, tb.limit)


class TestLargestZeroLocation:
    def test_supercritical_inside(self, supercritical):
        assert sobolev_zeros(supercritical, 250).outside_count == 0

    def test_subcritical_outside(self, subcritical):
        assert sobolev_zeros(subcritical, 250).outside_count == 1

    def test_critical_small_mass_inside(self, critical_small):
        assert sobolev_zeros(critical_small, 150).outside_count == 0

    def test_critical_big_mass_outside(self, critical_big):
        assert sobolev_zeros(critical_big, 150).outside_count == 1

    def test_agrees_with_full_zero_set(self, tabulated_setup):
        # with a positive leading coefficient the largest zero exceeds 1
        # exactly when the polynomial is negative at 1
        n = 150
        zs = sobolev_zeros(tabulated_setup, n)
        q1 = clenshaw_eval(sobolev_polynomial(tabulated_setup, n), 1.0)
        assert (q1 < 0.0) == (zs.zeros[0] > 1.0) == (zs.outside_count == 1)

    @pytest.mark.parametrize("n", [150, 500, 1000, 3000])
    def test_order_zero_mass_keeps_every_zero_inside(self, n):
        # a mass on the value (j = 0) gives Q_n(1) = P_n(1)/(1 + M_n K_{n-1}(1,1))
        # > 0; at alpha = 20 that is ~1e-20 or less, and Clenshaw's value at
        # 1 is about -1e13 at n = 150, so the side of 1 comes from the closed form
        setup = SobolevSetup(JacobiParams(20, 0), 0, MassSequence(MassKind.PLAIN, 1, 1))
        assert q_deriv_at_one(setup, n, 0) > 0.0
        assert sobolev_zeros(setup, n).outside_count == 0

    def test_matches_mass_threshold_rule(self, critical_small, critical_big):
        # knife-edge regime: escape iff the mass limit exceeds the threshold
        from sobolev_mh.asymptotics import critical_mass_threshold

        V = critical_mass_threshold(-0.9, -0.9, 3)
        assert float(critical_small.mass.M) <= V
        assert float(critical_big.mass.M) > V
        assert convergence_table(critical_small, [20], 4).rows[0].excluded == 0
        assert convergence_table(critical_big, [20], 4).rows[0].excluded == 1


class TestHurwitzTrend:
    def test_scaled_rows_approach_limit_fast(self, tabulated_setup):
        ref = TRUE_TABLES
        name = next(k for k, s in SETUPS.items() if s is tabulated_setup)
        lim = np.asarray(ref[name]["limit"])
        r150 = np.asarray(ref[name]["scaled"][150])
        r250 = np.asarray(ref[name]["scaled"][250])
        assert np.all(np.abs(r250 - lim) < np.abs(r150 - lim))

    @pytest.mark.slow
    def test_scaled_rows_approach_limit_500(self, tabulated_setup):
        name = next(k for k, s in SETUPS.items() if s is tabulated_setup)
        lim = np.asarray(TRUE_TABLES[name]["limit"])
        tb150 = convergence_table(tabulated_setup, [150], 4)
        tb500 = convergence_table(tabulated_setup, [500], 4)
        assert np.all(np.abs(tb500.rows[0].scaled - lim)
                      < np.abs(tb150.rows[0].scaled - lim))


def test_convergence_table_validations(supercritical):
    with pytest.raises(ValueError):
        convergence_table(supercritical, [], 4)
    with pytest.raises(ValueError):
        convergence_table(supercritical, [3], 4)


def _loaded(code, modules):
    """The names of ``modules`` that a fresh interpreter holds after ``code``."""
    root = Path(__file__).resolve().parents[1]
    code += f"\nimport sys\nprint([m for m in {tuple(modules)!r} if m in sys.modules])\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_zeros_do_not_import_numpy_ma():
    # numpy.ma costs ~5 ms to import; np.unique would pull it in
    code = ("from sobolev_mh.presets import SETUPS\n"
            "from sobolev_mh.zeros import sobolev_zeros\n"
            "sobolev_zeros(SETUPS['subcritical'], 150)\n")
    assert _loaded(code, ["numpy.ma"]) == []


ZEROS_CFG = """\
[experiment]
id = imports
job = zeros
alpha = 1/2
beta = 0
j = 2
gamma = 1
mass = plain
M = 1
degrees = 150
"""


@pytest.mark.parametrize("step", ["import", "zeros-config"])
def test_cli_step_loads_only_its_modules(tmp_path, step):
    # verify (with golden), presets and svg serve only verify, --preset and
    # mh-curve: every other job would pay to compile and run them at start-up
    code = "import sobolev_mh.cli\n"
    if step == "zeros-config":
        cfg = tmp_path / "imports.cfg"
        cfg.write_text(ZEROS_CFG)
        code += (f"assert sobolev_mh.cli.main(['zeros', '--config', {str(cfg)!r}, "
                 f"'--out', {str(tmp_path)!r}]) == 0\n")
    job_only = ["sobolev_mh.verify", "sobolev_mh.golden", "sobolev_mh.presets",
                "sobolev_mh.svg", "numpy.ma"]
    assert _loaded(code, job_only) == []
    if step == "zeros-config":
        assert (tmp_path / "imports_zeros.csv").exists()
