"""Zero extraction for the Sobolev polynomials and their limit functions.

All n zeros are real and simple, cluster quadratically at the right
endpoint and at most one sits above 1, so the bracketing grid has three
parts: a cosine-spaced sweep of [-1, 1], a fine endpoint grid in the
scaled variable u (x = 1 - u^2/(2n^2)) where consecutive clustered zeros
are O(1) apart, and an expanding search on (1, 1.5] for the exterior zero.

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
    theta = np.linspace(0.0, math.pi, 10 * (n + 1))
    coarse = np.cos(theta)
    i_peak = max(1, math.ceil(n / 4))
    # McMahon's expansion gives the far zeros to ~4 decimals, plenty for a
    # grid bound, without computing every Bessel zero below it
    j_peak = (_mcmahon_guess(p.a, i_peak) if i_peak >= 8
              else bessel_j_zero(p.a, i_peak))
    u_max = min(2.0 * j_peak, 2.0 * n)
    u = np.arange(0.2, u_max, 0.2)
    fine = 1.0 - u * u / (2.0 * n * n)
    outside = 1.0 + np.logspace(-9.0, math.log10(0.5), 160)
    grid = np.unique(np.concatenate([coarse, fine, outside]))
    return grid


def _roots_from_grid(series, grid):
    A, B, C = kernels.jacobi_recurrence(len(series.coeffs) + 1, series.params.a,
                                        series.params.b)
    vals = kernels.clenshaw_batch(series.coeffs, A, B, C, grid)
    exact = grid[vals == 0.0]
    sgn = np.sign(vals)
    idx = np.flatnonzero(sgn[:-1] * sgn[1:] < 0.0)
    d = derivative_series(series)
    Ad, Bd, Cd = kernels.jacobi_recurrence(len(d.coeffs) + 1, d.params.a,
                                           d.params.b)
    roots = kernels.refine_brackets(series.coeffs, A, B, C,
                                    d.coeffs, Ad, Bd, Cd,
                                    grid[idx], grid[idx + 1], vals[idx])
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
    return kernels._rtsafe(lambda x: _limit_fdf(lf, x), xs[idx], xs[idx + 1], vals[idx])


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
