"""Zero extraction for the Sobolev polynomials and their limit functions.

All n zeros are real and simple, cluster quadratically at the right
endpoint and at most one sits above 1.  The bracketing grid is sized to
them: a cosine sweep of [-1, 1] with four points per zero gap in theta, and
a fine endpoint grid in the scaled variable u (x = 1 - u^2/(2n^2)), step
0.2, over the first j + 16 Bessel zeros of order alpha, where the scaled
zeros stray from the Jacobi ones.  Q(1) is on the grid; only when it is
negative is there a zero above 1, and the ladder 1 + 1e-9 2^(k/8),
k = 0..359, evaluated with overflow ignored, brackets it at its first sign
change.

The zeros of the limit function are bracketed by a 0.02 scan from 1e-3
and refined all together by the same safeguarded Newton method
(``kernels._rtsafe``) on its value and derivative.
"""

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .asymptotics import (
    RegimeKind,
    classify_regime,
    critical_mass_threshold,
    limit_coeffs,
    limit_eval,
)
from .errors import NumericError
from .jacobi import clenshaw_eval, derivative_series
from .sobolev import sobolev_polynomial
from .special_functions import _mcmahon_guess, bessel_j, bessel_j_zero


@dataclass(frozen=True)
class ZeroSet:
    n: int
    zeros: np.ndarray = field(repr=False)  # strictly decreasing

    def __post_init__(self):
        object.__setattr__(self, "zeros", np.asarray(self.zeros, dtype=np.float64))

    @property
    def outside_count(self):
        return int(np.count_nonzero(self.zeros > 1.0))


@dataclass(frozen=True)
class ScaledZeros:
    n: int
    values: np.ndarray = field(repr=False)  # strictly increasing
    outside: float | None = None


class ZeroLocation(enum.Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"


def _bracket_grid(setup, n):
    p = setup.params
    # four cosine points per zero gap in theta over [-1, 1]
    coarse = np.cos(np.linspace(0.0, math.pi, 4 * (n + 1)))
    # only the first j + 2 or so scaled zeros stray from the Bessel zeros of
    # order alpha, so the u-grid covers the first j + 16 of those; McMahon's
    # expansion gives the far ones to ~4 decimals, plenty for a grid bound
    i_peak = max(1, min(math.ceil(n / 4), int(setup.j) + 16))
    j_peak = (_mcmahon_guess(p.a, i_peak) if i_peak >= 8
              else bessel_j_zero(p.a, i_peak))
    u_max = min(2.0 * j_peak, 2.0 * n)
    u = np.arange(0.2, u_max, 0.2)
    fine = 1.0 - u * u / (2.0 * n * n)
    return np.unique(np.concatenate([coarse, fine]))


# offsets above the top of the grid where the exterior zero is looked for:
# 1e-9 up to 3e4, eight points per octave, so that its bracket is narrow
# enough for the secant start
_LADDER = 1e-9 * 2.0 ** (np.arange(360) / 8.0)


def _brackets(c, A, B, C, grid):
    """Sign-change brackets (lo, hi, f(lo), f(hi)) of the series ``c`` on the
    ascending ``grid``, and the grid points where it is exactly zero.

    With a positive leading coefficient a zero lies above the grid exactly
    when the series is negative at its top; that zero is bracketed by the
    first sign change of the ladder top + 1e-9 2^(k/8), k = 0..359, up to
    the ladder's first value that is not finite.
    """
    vals = kernels.clenshaw_batch(c, A, B, C, grid)
    if vals[-1] < 0.0:
        ladder = grid[-1] + _LADDER
        with np.errstate(over="ignore", invalid="ignore"):
            lv = kernels.clenshaw_batch(c, A, B, C, ladder)
        finite = np.logical_and.accumulate(np.isfinite(lv))
        up = np.flatnonzero(finite & (lv >= 0.0))
        if len(up) == 0:
            raise NumericError(
                f"degree {len(c) - 1}: negative at x = {grid[-1]:.17g} and no sign "
                f"change found above it")
        grid = np.concatenate([grid, ladder[:up[0] + 1]])
        vals = np.concatenate([vals, lv[:up[0] + 1]])
    sgn = np.sign(vals)
    idx = np.flatnonzero(sgn[:-1] * sgn[1:] < 0.0)
    return grid[idx], grid[idx + 1], vals[idx], vals[idx + 1], grid[vals == 0.0]


def _roots_from_grid(series, grid):
    A, B, C = kernels.jacobi_recurrence(len(series.coeffs) + 1, series.params.a,
                                        series.params.b)
    lo, hi, flo, fhi, exact = _brackets(series.coeffs, A, B, C, grid)
    d = derivative_series(series)
    Ad, Bd, Cd = kernels.jacobi_recurrence(len(d.coeffs) + 1, d.params.a,
                                           d.params.b)
    roots = kernels.refine_brackets(series.coeffs, A, B, C,
                                    d.coeffs, Ad, Bd, Cd, lo, hi, flo, fhi)
    if len(exact):
        roots = np.concatenate([roots, exact])
    return np.sort(roots)


def sobolev_zeros(setup, n):
    """All n zeros of the degree-n Sobolev polynomial, largest first."""
    n = int(n)
    if n < 1:
        raise ValueError("zero extraction needs degree >= 1")
    series = sobolev_polynomial(setup, n)
    grid = _bracket_grid(setup, n)
    roots = _roots_from_grid(series, grid)
    if len(roots) != n:
        # one densification pass before giving up
        dense = np.unique(np.concatenate([
            grid,
            0.5 * (grid[:-1] + grid[1:]),
            0.75 * grid[:-1] + 0.25 * grid[1:],
            0.25 * grid[:-1] + 0.75 * grid[1:],
        ]))
        roots = _roots_from_grid(series, dense)
    if len(roots) != n:
        raise NumericError(
            f"found {len(roots)} of {n} zeros for degree {n}; "
            f"bracketed roots: {', '.join(f'{r:.17g}' for r in roots[:8])}...")
    return ZeroSet(n=n, zeros=roots[::-1].copy())


def scaled_zeros(setup, n, count):
    """Endpoint scaling n*sqrt(2(1-y)) of the `count` largest interior zeros."""
    count = int(count)
    if count < 1 or count > int(n):
        raise ValueError("count must be in 1..n")
    zs = sobolev_zeros(setup, n)
    outside = float(zs.zeros[0]) if zs.zeros[0] > 1.0 else None
    interior = zs.zeros[zs.zeros <= 1.0][:count]
    # descending zeros map to increasing scaled values
    vals = n * np.sqrt(2.0 * (1.0 - interior))
    return ScaledZeros(n=int(n), values=vals, outside=outside)


def _limit_fdf(lf, x):
    # the limit function L and L' = (x/2)^(-a) sum_i b_i 2^i ((2i/x) J_{a+2i}
    # - J_{a+2i+1}) on the array x > 0, the odd orders from J_{nu+1} =
    # x (J_nu + J_{nu+2}) / (2 (nu + 1)): one Bessel pass per even order
    a = lf.alpha
    terms = [i for i, bi in enumerate(lf.b) if bi != 0.0]
    J = {k: bessel_j(a + 2.0 * k, x) for k in sorted({*terms, *(i + 1 for i in terms)})}
    f = fp = 0.0
    for i in terms:
        w = lf.b[i] * 2.0 ** i
        f = f + w * J[i]
        fp = fp + w * ((2.0 * i / x) * J[i]
                       - x * (J[i] + J[i + 1]) / (2.0 * (a + 2.0 * i + 1.0)))
    scale = np.exp(-a * np.log(0.5 * x))
    return scale * f, scale * fp


def limit_zeros(lf, count):
    """First `count` positive zeros of the limit function."""
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    j_top = len(lf.b) - 2
    U = bessel_j_zero(lf.alpha, count + j_top + 2) + 5.0
    for _ in range(5):
        xs = np.arange(1e-3, U, 0.02)
        vals = limit_eval(lf, xs)
        idx = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
        if len(idx) >= count:
            break
        U *= 2.0
    else:
        raise NumericError(f"found only {len(idx)} limit-function zeros below {U}")
    idx = idx[:count]
    return kernels._rtsafe(lambda x: _limit_fdf(lf, x), xs[idx], xs[idx + 1],
                           vals[idx], vals[idx + 1])


def largest_zero_location(setup, n):
    """Whether the largest zero lies beyond 1 at this degree.

    With a positive leading coefficient and at most one zero outside
    [-1, 1], the largest zero exceeds 1 exactly when the polynomial is
    negative at 1.
    """
    series = sobolev_polynomial(setup, int(n))
    q1 = clenshaw_eval(series, 1.0)
    return ZeroLocation.OUTSIDE if q1 < 0.0 else ZeroLocation.INSIDE


@dataclass(frozen=True)
class TableRow:
    n: int
    raw: np.ndarray = field(repr=False)     # `count` largest zeros, descending
    scaled: np.ndarray = field(repr=False)  # increasing, regime-excluded


@dataclass(frozen=True)
class ConvergenceTable:
    count: int
    excluded: int
    rows: list
    limit: np.ndarray = field(repr=False)


def regime_excluded_count(setup):
    """How many leading zeros the scaled-zero correspondence skips: 1 when
    the regime predicts an escaping largest zero (subcritical, or critical
    with mass above the threshold), else 0.  Zero for derivative order 0."""
    j = int(setup.j)
    if j == 0:
        return 0
    regime = classify_regime(setup.mass.gamma, setup.params.alpha, j)
    if regime.kind is RegimeKind.SUBCRITICAL:
        return 1
    if regime.kind is RegimeKind.CRITICAL:
        V = critical_mass_threshold(setup.params.alpha, setup.params.beta, j)
        if float(setup.mass.M) > V:
            return 1
    return 0


def convergence_table(setup, ns, count):
    """Scaled-zero rows for each degree plus the limit row."""
    count = int(count)
    ns = sorted(int(v) for v in ns)
    if not ns:
        raise ValueError("need at least one degree")
    if count > ns[0]:
        raise ValueError("count exceeds the smallest degree")
    excluded = regime_excluded_count(setup)
    rows = []
    for n in ns:
        zs = sobolev_zeros(setup, n)
        raw = zs.zeros[:count].copy()
        sel = zs.zeros[excluded:count]
        sel = sel[sel <= 1.0]
        scaled = n * np.sqrt(2.0 * (1.0 - sel))
        rows.append(TableRow(n=n, raw=raw, scaled=scaled))
    lf = limit_coeffs(setup)
    lim = limit_zeros(lf, count - excluded)
    return ConvergenceTable(count=count, excluded=excluded, rows=rows, limit=lim)
