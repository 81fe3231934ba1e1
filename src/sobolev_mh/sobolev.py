"""Varying-mass discrete Sobolev machinery built on the Jacobi layer.

The inner product adds a degree-dependent point mass M_n on the j-th
derivative at x = 1.  The orthogonal polynomial of degree n is the
classical one minus an explicit kernel correction; everything downstream
(derivative ratios at 1, Sobolev norms, connection coefficients) follows
from closed formulas, never finite differences.  They take a degree or an
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

from . import kernels
from .errors import MissingMassError
from .jacobi import (
    JacobiParams,
    JacobiSeries,
    _degrees,
    _exp,
    _log_d,
    _log_norm2,
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
    """Mass sequence M_n with M_n * n^gamma -> M.

    ``M`` is the limit constant; for the EXP_RATIONAL and LOG_RATIO families
    the limit is fixed by the formula (1/2 and 7/2) and ``M`` is informative
    only.
    """

    kind: MassKind
    M: float | Fraction
    gamma: float | Fraction
    custom_values: dict | None = None

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("mass limit must be nonnegative")
        if self.kind is MassKind.CUSTOM and self.custom_values is None:
            raise ValueError("custom mass sequence requires a value table")

    # converted once per instance: the parameters may be exact Fractions
    @cached_property
    def m(self):
        return float(self.M)

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


@dataclass(frozen=True)
class KernelValue:
    n: int
    j: int
    k: int
    value: float
    scaled: float


def mass(seq, n):
    """Value M_n of the mass sequence at degree n >= 1."""
    n = int(n)
    if n < 1:
        raise ValueError("mass sequence is defined for n >= 1")
    g = seq.g
    if seq.kind is MassKind.PLAIN:
        return seq.m * n ** (-g)
    if seq.kind is MassKind.EXP_RATIONAL:
        # 3 e^n / ((6 e^n + 4) n^g), rewritten overflow-free
        return 3.0 / ((6.0 + 4.0 * math.exp(-n)) * n ** g)
    if seq.kind is MassKind.LOG_RATIO:
        return (7.0 * math.log(n + 1.0) + 5.0) / ((3.0 + 2.0 * math.log(n)) * n ** g)
    if seq.kind is MassKind.POLY_RATIO:
        return seq.m * n * n * (n - 0.5) * (n + 2.0) / n ** (g + 4.0)
    if seq.kind is MassKind.CUSTOM:
        try:
            return float(seq.custom_values[n])
        except KeyError:
            raise MissingMassError(
                f"custom mass sequence has no entry for n={n}") from None
    raise ValueError(f"unknown mass kind {seq.kind!r}")


# ---------------------------------------------------------------------------
# kernel sums K_n^{(j,k)}(1,1) and the closed forms built on them
# ---------------------------------------------------------------------------

def _log_kernel(params, n_max, ks):
    """log d_i(k), one row per order in ``ks`` (-inf for i < k), and log h_i for
    i <= n_max; log K_m^{(ks[0], k)}(1,1) for m = -1..n_max in column m + 1."""
    i = np.arange(n_max + 1)
    k = np.asarray(ks)[:, None]
    ld = np.where(i < k, -np.inf, _log_d(np.maximum(i, k), k, params.a, params.b))
    lh = _log_norm2(i, params.a, params.b)
    terms = np.full((len(ks), n_max + 2), -np.inf)
    terms[:, 1:] = ld[0] + ld - lh
    return ld, lh, np.logaddexp.accumulate(terms, axis=1)


def _log_forms(setup, n, ks=()):
    """For the orders (j, *ks), one row each, and the degrees ``n`` (an int
    array): log d_i(k) and log h_i for i <= max(n), log K_{n-1}^{(j,k)}(1,1),
    log(1 + M_n K_{n-1}^{(j,j)}(1,1)) and log c_n = log of M_n d_n(j) over
    the latter.  M_0 = 0; ``mass`` is called only at the degrees n, which
    may be all a custom table holds."""
    ld, lh, lK = _log_kernel(setup.params, int(n.max()), (int(setup.j), *ks))
    with np.errstate(divide="ignore"):
        lM = np.log([mass(setup.mass, m) if m else 0.0 for m in n.flat]).reshape(n.shape)
    lden = np.logaddexp(0.0, lM + lK[0, n])
    return ld, lh, lK[:, n], lden, lM + ld[0, n] - lden


def _deriv_ratios(setup, n, ks):
    # Q_n^(k)(1) / P_n^(k)(1), one row per order in ks: 1 - c_n K^{(j,k)} / d_n(k),
    # or at k = j its exact rearrangement 1 / (1 + M_n K^{(j,j)})
    ld, _, lK, lden, lc = _log_forms(setup, n, ks)
    return [_exp(-lden) if k == setup.j else 1.0 - _exp(lc + lK[r] - ld[r, n])
            for r, k in enumerate(ks, 1)]


def kernel_at_one(setup, n, j, k):
    """Kernel sum K_n^{(j,k)}(1,1) with its n^{2 alpha + 2j + 2k + 2} scaling,
    formed in log space (OverflowError only if K itself is too large)."""
    n, j, k = int(n), int(j), int(k)
    p = setup.params
    lK = _log_kernel(p, n, (j, k))[2][1, -1]
    power = 2.0 * p.a + 2.0 * j + 2.0 * k + 2.0
    scaled = _exp(lK - power * math.log(n)) if n >= 1 else math.inf
    return KernelValue(n=n, j=j, k=k, value=_exp(lK), scaled=scaled)


def _series_coeffs(setup, n):
    """Jacobi coefficients -c_n d_i(j) / h_i (i < n), 1 (i = n) of the degrees
    ``n`` (a 1-d int array), row r for n[r], zero-padded to max(n) + 1."""
    ld, lh, _, _, lc = _log_forms(setup, n)
    below = np.arange(n.max() + 1) < n[:, None]
    coeffs = -_exp(lc[:, None] + np.where(below, ld[0] - lh, -np.inf))
    coeffs[np.arange(len(n)), n] = 1.0
    return coeffs


def sobolev_polynomial(setup, n):
    """Degree-n orthogonal polynomial of the discrete inner product, as a
    Jacobi series with unit leading coefficient."""
    return JacobiSeries(setup.params, _series_coeffs(setup, _degrees([n]))[0])


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


def deriv_ratio(setup, n, k):
    """Ratio of the Sobolev to the classical k-th derivative at x = 1; ``n``
    may be an array of degrees."""
    n, k = _degrees(n), int(k)
    if not 0 <= k <= n.min():
        raise ValueError("need 0 <= k <= n")
    return _deriv_ratios(setup, n, (k,))[0]


def sobolev_norm2(setup, n):
    """Squared Sobolev norm of the degree-n orthogonal polynomial,
    h_n + c_n d_n(j); ``n`` may be an array of degrees."""
    n = _degrees(n)
    ld, lh, _, _, lc = _log_forms(setup, n)
    return _exp(lh[n]) + _exp(lc + ld[0, n])


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
    b = solve_connection(lambda k: ratio[k], lambda i, k: entry[..., i, k], j + 2)
    return np.moveaxis(b, 0, -1)


def connection_reconstruct(setup, n, x):
    """Evaluate the short connection combination at x (scalar or array).

    ``n`` is one degree or a sequence of degrees; a sequence gives an array
    of shape (len(n),) + x.shape, row k for degree n[k].  Every shifted
    polynomial P_{n_k-i}^{(alpha+2i, beta)}, i <= j + 1, is one row of a
    single stacked Clenshaw pass; a lone degree is the one-row case.
    """
    degrees = np.atleast_1d(np.asarray(n, dtype=np.int64))
    j = int(setup.j)
    p = setup.params
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    b = connection_coeffs(setup, degrees).T.reshape((j + 2, len(degrees)) + (1,) * arr.ndim)
    # row (k, i) is P_{n_k-i}^{(alpha+2i, beta)}: the unit series e_{n_k-i},
    # zero-padded to the largest degree, in the basis of exponent alpha + 2i,
    # whose recurrence row i every degree shares
    i = np.arange(j + 2)
    unit = np.zeros((len(degrees), j + 2, degrees.max() + 1))
    unit[np.arange(len(degrees))[:, None], i, degrees[:, None] - i] = 1.0
    A, B, C = kernels.jacobi_recurrence(degrees.max() + 2, p.a + 2.0 * i[:, None], p.b)
    shifted = kernels.clenshaw_batch(unit, A, B, C, arr)
    total = np.zeros((len(degrees),) + arr.shape)
    for k in range(j + 2):
        total += b[k] * (1.0 - arr) ** k * shifted[:, k]
    total = total.reshape(np.shape(n) + np.shape(x))
    return float(total) if total.ndim == 0 else total
