import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import jn_zeros

from mp_oracle import SobolevOracle, coeff_error
from reference_values import TRUE_TABLES

from sobolev_mh import kernels
from sobolev_mh.asymptotics import limit_coeffs
from sobolev_mh.errors import NumericError
from sobolev_mh.jacobi import JacobiParams, clenshaw_eval, derivative_series
from sobolev_mh.presets import SETUPS
from sobolev_mh.sobolev import MassKind, MassSequence, SobolevSetup, sobolev_polynomial
from sobolev_mh.zeros import (
    ZeroLocation,
    _bracket_grid,
    _brackets,
    convergence_table,
    largest_zero_location,
    limit_zeros,
    regime_excluded_count,
    scaled_zeros,
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


def _counted_refine(setup, n, monkeypatch):
    """Refine the brackets of the degree-n zero grid; return the roots, the
    brackets and the Clenshaw passes the refine took."""
    series = sobolev_polynomial(setup, n)
    d = derivative_series(series)
    A, B, C = kernels.jacobi_recurrence(n + 2, series.params.a, series.params.b)
    Ad, Bd, Cd = kernels.jacobi_recurrence(n + 1, d.params.a, d.params.b)
    lo, hi, flo, fhi, exact = _brackets(series.coeffs, A, B, C, _bracket_grid(setup, n))
    assert len(lo) == n and len(exact) == 0

    passes = 0
    clenshaw = kernels._clenshaw_numpy

    def counted(*args):
        nonlocal passes
        passes += 1
        return clenshaw(*args)

    monkeypatch.setattr(kernels, "_clenshaw_numpy", counted)
    roots = kernels.refine_brackets(series.coeffs, A, B, C, d.coeffs, Ad, Bd, Cd,
                                    lo, hi, flo, fhi)
    monkeypatch.undo()
    return roots, lo, hi, passes


def test_refine_needs_few_clenshaw_passes(tabulated_setup, monkeypatch):
    n = 250
    roots, lo, hi, passes = _counted_refine(tabulated_setup, n, monkeypatch)
    assert passes <= 16
    assert np.all((lo <= roots) & (roots <= hi))
    assert np.max(np.abs(roots[::-1] - sobolev_zeros(tabulated_setup, n).zeros)) == 0.0


def test_secant_start_refines_in_few_passes(tabulated_setup, monkeypatch):
    # the secant point of a grid bracket is close enough for Newton to
    # converge in 3-4 steps, two Clenshaw passes each
    _, _, _, passes = _counted_refine(tabulated_setup, 250, monkeypatch)
    assert passes <= 10


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
    c = np.array([-1.0, -1.0])
    A, B, C = kernels.jacobi_recurrence(3, 0.0, 0.0)
    with pytest.raises(NumericError, match="no sign change"):
        _brackets(c, A, B, C, np.linspace(-1.0, 1.0, 5))


SWEEP_ALPHA = (-0.9, 0, 3, 10)


@pytest.mark.parametrize("n", [10, 60, 300])
@pytest.mark.parametrize("alpha", SWEEP_ALPHA)
def test_robustness_sweep(alpha, n, monkeypatch):
    """Every case of the sweep beta in {-1/2, 5}, j in {0, 1, 3, 6}, gamma in
    {1, 12, 40}, M in {1, 1e6} finds n zeros, at most one above 1, on the
    first grid pass and without a RuntimeWarning."""
    import sobolev_mh.zeros as zmod

    passes = 0
    found = zmod._roots_from_grid

    def counted(series, grid):
        nonlocal passes
        passes += 1
        return found(series, grid)

    monkeypatch.setattr(zmod, "_roots_from_grid", counted)
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


def _plain_setup(alpha, beta, j, gamma):
    return SobolevSetup(JacobiParams(alpha, beta), j, MassSequence(MassKind.PLAIN, 1, gamma))


def _assert_zero_set(setup, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zs = sobolev_zeros(setup, n)
    assert len(zs.zeros) == n
    assert zs.outside_count <= 1


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
    assert tb.excluded == ref["excluded"]
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
    def test_increasing_and_outside_reported(self, subcritical):
        sc = scaled_zeros(subcritical, 250, 3)
        assert np.all(np.diff(sc.values) > 0)
        assert sc.outside is not None and sc.outside > 1.0

    def test_reference_row(self, supercritical):
        sc = scaled_zeros(supercritical, 250, 4)
        np.testing.assert_allclose(
            sc.values, TRUE_TABLES["supercritical"]["scaled"][250], atol=1e-6)

    def test_count_validation(self, supercritical):
        with pytest.raises(ValueError):
            scaled_zeros(supercritical, 20, 0)
        with pytest.raises(ValueError):
            scaled_zeros(supercritical, 20, 21)


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


class TestLargestZeroLocation:
    def test_supercritical_inside(self, supercritical):
        assert largest_zero_location(supercritical, 250) is ZeroLocation.INSIDE

    def test_subcritical_outside(self, subcritical):
        assert largest_zero_location(subcritical, 250) is ZeroLocation.OUTSIDE

    def test_critical_small_mass_inside(self, critical_small):
        assert largest_zero_location(critical_small, 150) is ZeroLocation.INSIDE

    def test_critical_big_mass_outside(self, critical_big):
        assert largest_zero_location(critical_big, 150) is ZeroLocation.OUTSIDE

    def test_agrees_with_full_zero_set(self, tabulated_setup):
        n = 150
        zs = sobolev_zeros(tabulated_setup, n)
        loc = largest_zero_location(tabulated_setup, n)
        assert (loc is ZeroLocation.OUTSIDE) == (zs.zeros[0] > 1.0)

    def test_matches_mass_threshold_rule(self, critical_small, critical_big):
        # knife-edge regime: escape iff the mass limit exceeds the threshold
        from sobolev_mh.asymptotics import critical_mass_threshold

        V = critical_mass_threshold(-0.9, -0.9, 3)
        assert float(critical_small.mass.M) <= V
        assert float(critical_big.mass.M) > V
        assert regime_excluded_count(critical_small) == 0
        assert regime_excluded_count(critical_big) == 1


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


def test_zeros_do_not_import_numpy_ma():
    # numpy.ma costs ~5 ms to import; np.unique would pull it in
    root = Path(__file__).resolve().parents[1]
    code = ("import sys\n"
            "from sobolev_mh.presets import SETUPS\n"
            "from sobolev_mh.zeros import sobolev_zeros\n"
            "sobolev_zeros(SETUPS['subcritical'], 150)\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_kernel_bench_runs():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(root / "benchmarks" / "bench_kernels.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["clenshaw(5k", "pts)", "refine", "roots", "passes",
                                "passes/root"]
    assert lines[2].split() == ["bessel_j(1868", "pts)", "limit_zeros(6)"]
