"""Varying-mass discrete Sobolev machinery built on the Jacobi layer.

The inner product adds a degree-dependent point mass M_n on the j-th
derivative at x = 1.  The orthogonal polynomial of degree n is the
classical one minus an explicit kernel correction; everything downstream
(derivatives at 1, connection coefficients) follows from closed formulas,
never finite differences.  They take a degree or an
array of degrees and stay logs until the final value; the kernel sums of
every degree up to the largest come from one ``np.logaddexp.accumulate``,
which cannot overflow.  Nothing is cached: a table up to degree 5000 costs
about a millisecond.
"""

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .jacobi import (
    JacobiParams,
    JacobiSeries,
    _degrees,
    _exp,
    _log_d,
    _log_norm2,
    clenshaw_eval,
    solve_connection,
)


class MassKind(enum.Enum):
    PLAIN = "plain"
    EXP_RATIONAL = "exp-rational"
    LOG_RATIO = "log-ratio"
    POLY_RATIO = "poly-ratio"
    CUSTOM = "custom"


@dataclass(frozen=True)
class MassSequence:
    """Mass sequence M_n >= 0 with M_n * n^gamma -> m.

    The limit ``m``, which the regime and the limit function read, is ``M``
    for the PLAIN, POLY_RATIO and CUSTOM families; the EXP_RATIONAL and
    LOG_RATIO formulas fix it at 1/2 and 7/2 and do not read ``M``.
    """

    kind: MassKind
    M: float | Fraction
    gamma: float | Fraction
    custom_values: dict | None = None

    def __post_init__(self):
        if self.M < 0:
            raise ValueError("mass limit must be nonnegative")
        if self.kind is MassKind.CUSTOM and self.custom_values is None:
            raise ValueError("custom mass sequence requires a value table")
        if self.kind is MassKind.CUSTOM and min(self.custom_values.values(), default=0) < 0:
            raise ValueError("custom mass values must be nonnegative")

    # converted once per instance: the parameters may be exact Fractions
    @cached_property
    def m(self):
        # the formulas of ``mass`` fix the limit of these two families
        return {MassKind.EXP_RATIONAL: 0.5, MassKind.LOG_RATIO: 3.5}.get(
            self.kind, float(self.M))

    @cached_property
    def g(self):
        return float(self.gamma)


@dataclass(frozen=True)
class SobolevSetup:
    """Full problem instance: weight exponents, derivative order, mass sequence."""

    params: JacobiParams
    j: int
    mass: MassSequence

    def __post_init__(self):
        if int(self.j) < 0:
            raise ValueError("derivative order must be nonnegative")


def mass(seq, n):
    """Value M_n of the mass sequence at degree n >= 1."""
    n = int(n)
    if n < 1:
        raise ValueError("mass sequence is defined for n >= 1")
    g = seq.g
    if seq.kind is MassKind.CUSTOM:
        try:
            return float(seq.custom_values[n])
        except KeyError:
            raise ConfigError(f"custom mass sequence has no entry for n={n}") from None
    # n ** g raises past the double range and a divisor may underflow to 0;
    # a product or quotient past it is inf
    try:
        if seq.kind is MassKind.PLAIN:
            value = seq.m * n ** (-g)
        elif seq.kind is MassKind.EXP_RATIONAL:
            # 3 e^n / ((6 e^n + 4) n^g), rewritten overflow-free
            value = 3.0 / ((6.0 + 4.0 * math.exp(-n)) * n ** g)
        elif seq.kind is MassKind.LOG_RATIO:
            value = (7.0 * math.log(n + 1.0) + 5.0) / ((3.0 + 2.0 * math.log(n)) * n ** g)
        elif seq.kind is MassKind.POLY_RATIO:
            value = seq.m * n * n * (n - 0.5) * (n + 2.0) / n ** (g + 4.0)
        else:
            raise ValueError(f"unknown mass kind {seq.kind!r}")
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise OverflowError(f"the {seq.kind.value} mass at n = {n}, gamma = {g:g} "
                            f"is beyond the double range")
    return value


# ---------------------------------------------------------------------------
# kernel sums K_n^{(j,k)}(1,1) and the closed forms built on them
# ---------------------------------------------------------------------------

def _log_forms(setup, n, ks=()):
    """For the orders (j, *ks), one row each, and the degrees ``n`` (an int
    array): log d_i(k) (-inf for i < k) and log h_i for i <= max(n),
    log K_{n-1}^{(j,k)}(1,1), log(1 + M_n K_{n-1}^{(j,j)}(1,1)) and log c_n =
    log of M_n d_n(j) over the latter.  M_0 = 0; ``mass`` is called only at
    the degrees n, which may be all a custom table holds."""
    p = setup.params
    i = np.arange(int(n.max()) + 1)
    k = np.array([int(setup.j), *ks])[:, None]
    ld = np.where(i < k, -np.inf, _log_d(np.maximum(i, k), k, p.a, p.b))
    lh = _log_norm2(i, p.a, p.b)
    # column m + 1 holds log K_m for m = -1..max(n)
    lK = np.full((len(k), len(i) + 1), -np.inf)
    lK[:, 1:] = ld[0] + ld - lh
    lK = np.logaddexp.accumulate(lK, axis=1)[:, n]
    with np.errstate(divide="ignore"):
        lM = np.log([mass(setup.mass, m) if m else 0.0 for m in n.flat]).reshape(n.shape)
    lden = np.logaddexp(0.0, lM + lK[0])
    return ld, lh, lK, lden, lM + ld[0, n] - lden


def _deriv_ratios(setup, n, ks):
    # Q_n^(k)(1) / P_n^(k)(1), one row per order in ks: 1 - c_n K^{(j,k)} / d_n(k),
    # or at k = j its exact rearrangement 1 / (1 + M_n K^{(j,j)})
    ld, _, lK, lden, lc = _log_forms(setup, n, ks)
    return [_exp(-lden) if k == setup.j else 1.0 - _exp(lc + lK[r] - ld[r, n])
            for r, k in enumerate(ks, 1)]


def sobolev_polynomial(setup, n):
    """Degree-n orthogonal polynomial of the discrete inner product, as a
    Jacobi series with unit leading coefficient: -c_n d_i(j) / h_i (i < n),
    1 (i = n).  A 1-d array ``n`` gives a stack, row r for n[r], zero-padded
    to max(n) + 1."""
    n = _degrees(n)
    ld, lh, _, _, lc = _log_forms(setup, n)
    below = np.arange(n.max() + 1) < n[..., None]
    coeffs = -_exp(lc[..., None] + np.where(below, ld[0] - lh, -np.inf))
    np.put_along_axis(coeffs, n[..., None], 1.0, axis=-1)
    return JacobiSeries(setup.params, coeffs)


def q_deriv_at_one(setup, n, k):
    """k-th derivative of the Sobolev polynomial at x = 1 (closed kernel form);
    ``n`` may be an array of degrees.

    At k = j the generic difference d_n(j) - c_n K^{(j,j)} cancels almost
    completely once the mass term dominates, so that case uses the exact
    rearrangement d_n(j) / (1 + M_n K^{(j,j)}).
    """
    n, k = _degrees(n), int(k)
    if k < 0:
        raise ValueError("order must be nonnegative")
    ld, _, lK, lden, lc = _log_forms(setup, n, (k,))
    if k == int(setup.j):
        return _exp(ld[0, n] - lden)
    return _exp(ld[1, n]) - _exp(lc + lK[1])


# ---------------------------------------------------------------------------
# short connection formula against parameter-shifted Jacobi polynomials
# ---------------------------------------------------------------------------

def connection_coeffs(setup, n):
    """Coefficients b_0(n)..b_{j+1}(n) writing the Sobolev polynomial as
    sum_i b_i(n) (1-x)^i P_{n-i} with weight exponent alpha+2i.

    Solved by forward substitution of the lower-triangular system obtained
    from the derivative values at x = 1.  ``n`` may be an array of degrees;
    the coefficients of degree n[r] are then row r.
    """
    n, j = _degrees(n), int(setup.j)
    if np.any(n < j + 1):
        raise ValueError(f"connection formula needs n >= {j + 1}, got {n.min()}")
    p = setup.params
    ratio = _deriv_ratios(setup, n, range(j + 2))
    # L[..., i, k]: log of the (k-i)-th derivative at 1 of P_{n-i}^{(a+2i, b)}
    # (row 0 is P_n's own); the entries with k < i are never read
    i = np.arange(j + 2)[:, None]
    k = np.arange(j + 2)
    L = _log_d(n[..., None, None] - i, np.maximum(k - i, 0), p.a + 2.0 * i, p.b)
    entry = np.exp(L - L[..., :1, :])
    return solve_connection(np.stack(ratio, -1), entry)


def connection_reconstruct(setup, n, x):
    """Evaluate the short connection combination at x (scalar or array).

    ``n`` is one degree or a sequence of degrees; a sequence gives an array
    of shape (len(n),) + x.shape, row k for degree n[k].  For each shift
    i <= j + 1 the polynomials P_{n_k-i}^{(alpha+2i, beta)} of every degree
    are one stack in the basis of exponent alpha + 2i, evaluated in one
    Clenshaw pass.
    """
    degrees = np.atleast_1d(np.asarray(n, dtype=np.int64))
    p = setup.params
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    b = connection_coeffs(setup, degrees).T.reshape((-1, len(degrees)) + (1,) * arr.ndim)
    total = np.zeros((len(degrees),) + arr.shape)
    rows = np.arange(len(degrees))
    for i in range(int(setup.j) + 2):
        # row k is the unit series e_{n_k-i}, zero-padded to the largest degree
        unit = np.zeros((len(degrees), degrees.max() + 1))
        unit[rows, degrees - i] = 1.0
        shifted = clenshaw_eval(JacobiSeries(JacobiParams(p.a + 2.0 * i, p.b), unit), arr)
        total += b[i] * (1.0 - arr) ** i * shifted
    total = total.reshape(np.shape(n) + np.shape(x))
    return float(total) if total.ndim == 0 else total
