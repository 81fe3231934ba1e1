"""Zero extraction for the Sobolev polynomials and their limit functions.

All n zeros are real and simple, cluster quadratically at the right
endpoint and at most one sits above 1.  The bracketing grid is sized to
them: a cosine sweep of [-1, 1] with two points per zero gap in theta of
the effective degree N = n + max(0, (alpha + beta + 1)/2), the frequency of
Darboux's formula (Szego, Thm 8.21.8), so that the sweep keeps pace with
zeros that crowd into a narrower arc when alpha + beta is large against n.
Q(1) is on the grid, with the value of its closed form
(``q_deriv_at_one``): Clenshaw's cancels to noise when Q(1) is far below
P_n(1).  Only when Q(1) is not positive is there a zero at or above 1, and
the ladder 1 + 1e-9 2^(k/8), k = 0..359, evaluated with overflow ignored in
the grid's one Clenshaw pass, extends the grid to its first positive value;
``ZeroSet.outside_count`` reports that zero.  One pass of
``kernels.grid_roots`` over this grid finds every zero, each refined by a
safeguarded secant iteration on values of Q alone (no derivative is
formed); inside the sweep it starts from the zero of the damped sinusoid
through the four values around the bracket, about two refine passes per
zero (at degree 1, from its secant point, which lands on the linear root).
A set it leaves short is a ``NumericError``.  The scaled zeros
n sqrt(2(1 - y)) are formed only by ``convergence_table``, whose row of
degree n leaves out the largest zero exactly when that zero is at or above
1 (the closed-form Q_n(1) is not positive) or when the limit function L
changes sign on [0, 1e-3], below the scan of the limit row (L(0) = b_0 = 0
at j = 0, subcritical), where the largest zero tends to a zero of L that
the row does not list.  n^(-alpha) Q_n(1) -> L(0) = b_0 / Gamma(alpha + 1),
so from some degree on the rows with b_0 < 0 leave it out too.  A mass
limit M = 0, the classical polynomial, excludes no zero in any regime.

The first `count` zeros of the limit function (b_0, ..., b_{j+1}) come from
one pass of the same scan (``kernels._scan_zeros``) over a 0.02 grid from
1e-3 up to McMahon's estimate of the (count + j + 2)-th Bessel zero of
order alpha plus 5, on F = max(1, (x/2)^alpha) L: L below x = 2, where
S = sum_i b_i 2^i J_{alpha+2i} = (x/2)^alpha L underflows first, and S from
2 on, where L is subnormal near its zeros from alpha ~ 151.  The scan's cap
of 1e5 grid points ends them at alpha ~ 1650.  From alpha ~ 170 both
underflow near 0, and a sign change hidden there is refused.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .asymptotics import limit_coeffs, limit_eval
from .errors import NumericError
from .jacobi import clenshaw_eval
from .sobolev import q_deriv_at_one, sobolev_polynomial
from .special_functions import _mcmahon_guess, bessel_j


@dataclass(frozen=True)
class ZeroSet:
    n: int
    zeros: np.ndarray = field(repr=False)  # strictly decreasing

    def __post_init__(self):
        object.__setattr__(self, "zeros", np.asarray(self.zeros, dtype=np.float64))

    @property
    def outside_count(self):
        return int(np.count_nonzero(self.zeros > 1.0))


def _bracket_grid(setup, n):
    """The cosine sweep of [-1, 1], ascending: two points per zero gap in
    theta of the effective degree N = n + max(0, (alpha + beta + 1)/2), the
    frequency of Darboux's formula, that is 2(ceil(N) + 1) points.  Near 1
    the zeros lie at theta ~ u_k/N, the u_k the limit function's zeros
    about pi apart (Mehler-Heine), so the sweep brackets them too.  N counts
    at most 5e5 beyond n, which bounds the sweep at huge exponents (at
    alpha = 1e10 and n = 10 its 1e6 points still bracket every zero)."""
    p = setup.params
    N = n + min(max(0.0, 0.5 * (p.a + p.b + 1.0)), 5e5)
    return np.cos(np.linspace(math.pi, 0.0, 2 * (math.ceil(N) + 1)))


# offsets above the top of the grid where the exterior zero is looked for:
# 1e-9 up to 3e4, eight points per octave, so that its bracket is narrow
# enough for the secant start
_LADDER = 1e-9 * 2.0 ** (np.arange(360) / 8.0)
_TINY = np.finfo(np.float64).tiny


def _brackets(series, grid, q_at_one):
    """The Jacobi series on the ascending ``grid``, whose top is x = 1:
    (grid, values), the value at 1 being ``q_at_one`` and not Clenshaw's,
    the grid extended by the ladder 1 + 1e-9 2^(k/8), k = 0..359, up to its
    first positive value before any that is not finite, when ``q_at_one``
    is not positive (with a positive leading coefficient, exactly when a
    zero lies at or above 1).  Grid and ladder share one Clenshaw pass."""
    n = len(series.coeffs) - 1
    ladder = grid[-1] + _LADDER if q_at_one <= 0.0 else grid[:0]
    with np.errstate(over="ignore", invalid="ignore"):
        vals = clenshaw_eval(series, np.concatenate([grid, ladder]))
    vals, lv = vals[:len(grid)], vals[len(grid):]
    vals[-1] = q_at_one
    if not np.isfinite(vals).all():
        raise NumericError(f"degree {n}: the series overflows a double on "
                           f"the bracket grid")
    if len(ladder):
        finite = np.logical_and.accumulate(np.isfinite(lv))
        up = np.flatnonzero(finite & (lv > 0.0))
        if len(up) == 0:
            raise NumericError(
                f"degree {n}: not positive at x = {grid[-1]:.17g} and no sign "
                f"change found above it")
        grid = np.concatenate([grid, ladder[:up[0] + 1]])
        vals = np.concatenate([vals, lv[:up[0] + 1]])
    return grid, vals


def sobolev_zeros(setup, n):
    """All n zeros of the degree-n Sobolev polynomial, largest first."""
    n = int(n)
    if n < 1:
        raise ValueError("zero extraction needs degree >= 1")
    series = sobolev_polynomial(setup, n)
    try:
        q_at_one = q_deriv_at_one(setup, n, 0)
    except OverflowError:  # not a double: the grid check names it
        q_at_one = math.inf
    grid, vals = _brackets(series, _bracket_grid(setup, n), q_at_one)
    roots = kernels.grid_roots(lambda x: clenshaw_eval(series, x), grid, vals)
    if len(roots) != n:
        raise NumericError(
            f"found {len(roots)} of {n} zeros for degree {n}; "
            f"bracketed roots: {', '.join(f'{r:.17g}' for r in roots[:8])}...")
    return ZeroSet(n=n, zeros=roots[::-1].copy())


def limit_zeros(lf, count):
    """First `count` positive zeros of the limit function, those of F."""
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    top = _mcmahon_guess(lf.alpha, count + len(lf.b)) + 5.0
    nonzero = np.flatnonzero(lf.b).tolist()
    terms = [(lf.b[i] * 2.0 ** i, lf.alpha + 2.0 * i) for i in nonzero]

    def f(x):  # L below x = 2, S from 2 on
        out, high = np.empty(len(x)), x >= 2.0
        if not high.all():
            out[~high] = limit_eval(lf, x[~high])
        if high.any():
            out[high] = sum(c * bessel_j(nu, x[high]) for c, nu in terms)
        return out

    roots = kernels._scan_zeros(f, 0.02, top, count)
    # right of 0, F has the sign of b_i, the first nonzero coefficient; where
    # F(1e-3) underflows (from alpha ~ 170) the scan is blind up to where F
    # is normal, and an odd count of zeros there leaves F left of the first
    # zero found of the other sign, or not normal
    if abs(limit_eval(lf, 1e-3)) < _TINY:
        left = f(np.array([max(1e-3, roots[0] - 0.01)]))[0]
        if not left * np.sign(lf.b[nonzero[0]]) >= _TINY:
            raise NumericError(f"the limit function underflows near 0 and may change "
                               f"sign there, below {roots[0]:g}")
    return roots


@dataclass(frozen=True)
class TableRow:
    n: int
    excluded: int                           # 1 when the largest zero is left out
    raw: np.ndarray = field(repr=False)     # `count` largest zeros, descending
    scaled: np.ndarray = field(repr=False)  # increasing, the excluded zero left out


@dataclass(frozen=True)
class ConvergenceTable:
    count: int
    rows: list
    limit: np.ndarray = field(repr=False)


def convergence_table(setup, ns, count, zero_sets=None):
    """Scaled-zero rows for each degree plus the limit row.

    ``zero_sets``, a dict from degree to the ZeroSet of ``setup``, lends the
    sets it holds and receives the ones extracted here.
    """
    count = int(count)
    ns = sorted(int(v) for v in ns)
    if not ns:
        raise ValueError("need at least one degree")
    if not 1 <= count <= ns[0]:
        raise ValueError("count must be in 1..min(degrees)")
    zero_sets = {} if zero_sets is None else zero_sets
    for n in ns:
        if n not in zero_sets:
            zero_sets[n] = sobolev_zeros(setup, n)
    # built after the zeros, so that their failures come first; Q_n(1) <= 0
    # is a largest zero at or above 1, and a sign change of L on [0, 1e-3],
    # below the limit row's scan, a largest zero that tends to a zero of L
    # the row does not list: L(0) = 0 (b_0 = 0), or b_0 = G/(M + G) ~ 8e-308
    # at j = 0, critical, M = 1e308, with L's first zero near 1e-153
    lf = limit_coeffs(setup)
    unlisted = lf.b[0] == 0.0 or np.sign(lf.b[0]) * np.sign(limit_eval(lf, 1e-3)) < 0.0
    excluded = (q_deriv_at_one(setup, np.array(ns), 0) <= 0.0) | unlisted
    rows = []
    for n, excl in zip(ns, excluded.astype(int).tolist()):
        zs = zero_sets[n]
        scaled = n * np.sqrt(2.0 * (1.0 - zs.zeros[excl:count]))
        rows.append(TableRow(n=n, excluded=excl, raw=zs.zeros[:count].copy(),
                             scaled=scaled))
    # the limit row serves the row that excludes the fewest; it is empty when
    # every row excludes the only zero asked for
    listed = count - int(excluded.all())
    lim = limit_zeros(lf, listed) if listed else np.empty(0)
    return ConvergenceTable(count=count, rows=rows, limit=lim)
