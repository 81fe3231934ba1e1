"""Varying-mass discrete Sobolev machinery built on the Jacobi layer.

The inner product adds a degree-dependent point mass M_n on the j-th
derivative at x = 1.  The orthogonal polynomial of degree n is the
classical one minus an explicit kernel correction; everything downstream
(derivative ratios at 1, Sobolev norms, connection coefficients) follows
from closed formulas, never finite differences.
"""

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import MissingMassError
from .jacobi import (
    JacobiParams,
    JacobiSeries,
    _log_d,
    _log_norm2,
    deriv_at_one,
    jacobi_eval,
    norm2,
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
        if float(self.M) < 0:
            raise ValueError("mass limit must be nonnegative")
        if self.kind is MassKind.CUSTOM and self.custom_values is None:
            raise ValueError("custom mass sequence requires a value table")


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
    g = float(seq.gamma)
    if seq.kind is MassKind.PLAIN:
        return float(seq.M) * n ** (-g)
    if seq.kind is MassKind.EXP_RATIONAL:
        # 3 e^n / ((6 e^n + 4) n^g), rewritten overflow-free
        return 3.0 / ((6.0 + 4.0 * math.exp(-n)) * n ** g)
    if seq.kind is MassKind.LOG_RATIO:
        return (7.0 * math.log(n + 1.0) + 5.0) / ((3.0 + 2.0 * math.log(n)) * n ** g)
    if seq.kind is MassKind.POLY_RATIO:
        return float(seq.M) * n * n * (n - 0.5) * (n + 2.0) / n ** (g + 4.0)
    if seq.kind is MassKind.CUSTOM:
        try:
            return float(seq.custom_values[n])
        except KeyError:
            raise MissingMassError(
                f"custom mass sequence has no entry for n={n}") from None
    raise ValueError(f"unknown mass kind {seq.kind!r}")


# ---------------------------------------------------------------------------
# kernel sums K_n^{(j,k)}(1,1)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _kernel_sum(n, j, k, a, b):
    # sum_{i=0}^{n} d_i(j) d_i(k) / h_i with compensated accumulation; the
    # terms span many orders of magnitude for large alpha and j
    if n < 0:
        return 0.0
    total = 0.0
    comp = 0.0
    lo = max(j, k)
    for i in range(lo, n + 1):
        ldj = _log_d(i, j, a, b)
        ldk = ldj if k == j else _log_d(i, k, a, b)
        lh, factor = _log_norm2(i, a, b)
        term = math.exp(ldj + ldk - lh) / factor
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def kernel_at_one(setup, n, j, k):
    """Kernel sum K_n^{(j,k)}(1,1) with its n^{2 alpha + 2j + 2k + 2} scaling."""
    n = int(n)
    p = setup.params
    value = _kernel_sum(n, int(j), int(k), p.a, p.b)
    power = 2.0 * p.a + 2.0 * j + 2.0 * k + 2.0
    scaled = value / n ** power if n >= 1 else math.inf
    return KernelValue(n=n, j=int(j), k=int(k), value=value, scaled=scaled)


def _mass_coefficient(setup, n):
    # c_n = M_n d_n(j) / (1 + M_n K_{n-1}^{(j,j)}(1,1)); n = 0 never uses M
    if n == 0:
        return 0.0
    j = int(setup.j)
    Mn = mass(setup.mass, n)
    if Mn == 0.0:
        return 0.0
    p = setup.params
    dn = deriv_at_one(n, j, p)
    kjj = _kernel_sum(n - 1, j, j, p.a, p.b)
    return Mn * dn / (1.0 + Mn * kjj)


def sobolev_polynomial(setup, n):
    """Degree-n orthogonal polynomial of the discrete inner product, as a
    Jacobi series with unit leading coefficient."""
    n = int(n)
    if n < 0:
        raise ValueError("degree must be nonnegative")
    p = setup.params
    j = int(setup.j)
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    cn = _mass_coefficient(setup, n)
    if cn != 0.0:
        a, b = p.a, p.b
        for i in range(j, n):
            lh, factor = _log_norm2(i, a, b)
            coeffs[i] = -cn * math.exp(_log_d(i, j, a, b) - lh) / factor
    return JacobiSeries(p, coeffs)


def q_deriv_at_one(setup, n, k):
    """k-th derivative of the Sobolev polynomial at x = 1 (closed kernel form).

    At k = j the generic difference d_n(j) - c_n K^{(j,j)} cancels almost
    completely once the mass term dominates, so that case uses the exact
    rearrangement d_n(j) / (1 + M_n K^{(j,j)}).
    """
    n = int(n)
    k = int(k)
    p = setup.params
    j = int(setup.j)
    base = deriv_at_one(n, k, p)
    if n == 0:
        return base
    Mn = mass(setup.mass, n)
    if Mn == 0.0:
        return base
    if k == j:
        return base / (1.0 + Mn * _kernel_sum(n - 1, j, j, p.a, p.b))
    cn = _mass_coefficient(setup, n)
    return base - cn * _kernel_sum(n - 1, j, k, p.a, p.b)


def deriv_ratio(setup, n, k):
    """Ratio of the Sobolev to the classical k-th derivative at x = 1."""
    n = int(n)
    k = int(k)
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    p = setup.params
    j = int(setup.j)
    if n == 0:
        return 1.0
    Mn = mass(setup.mass, n)
    if Mn == 0.0:
        return 1.0
    if k == j:
        return 1.0 / (1.0 + Mn * _kernel_sum(n - 1, j, j, p.a, p.b))
    cn = _mass_coefficient(setup, n)
    return 1.0 - cn * _kernel_sum(n - 1, j, k, p.a, p.b) / deriv_at_one(n, k, p)


def sobolev_norm2(setup, n):
    """Squared Sobolev norm of the degree-n orthogonal polynomial."""
    n = int(n)
    p = setup.params
    h = norm2(n, p)
    if n == 0:
        return h
    Mn = mass(setup.mass, n)
    if Mn == 0.0:
        return h
    j = int(setup.j)
    dn = deriv_at_one(n, j, p)
    kjj = _kernel_sum(n - 1, j, j, p.a, p.b)
    return h + Mn * dn * dn / (1.0 + Mn * kjj)


# ---------------------------------------------------------------------------
# short connection formula against parameter-shifted Jacobi polynomials
# ---------------------------------------------------------------------------

def connection_coeffs(setup, n):
    """Coefficients b_0(n)..b_{j+1}(n) writing the Sobolev polynomial as
    sum_i b_i(n) (1-x)^i P_{n-i} with weight exponent alpha+2i.

    Solved by forward substitution of the lower-triangular system obtained
    from the derivative values at x = 1.
    """
    n = int(n)
    j = int(setup.j)
    if n < j + 1:
        raise ValueError(f"connection formula needs n >= {j + 1}, got {n}")
    p = setup.params

    def entry(i, k):
        # (k-i)-th derivative at 1 of P_{n-i}^{(a+2i, b)} over the k-th of P_n
        return math.exp(_log_d(n - i, k - i, p.a + 2.0 * i, p.b) - _log_d(n, k, p.a, p.b))

    return solve_connection(lambda k: deriv_ratio(setup, n, k), entry, j + 2)


def connection_reconstruct(setup, n, x):
    """Evaluate the short connection combination at x (scalar or array)."""
    n = int(n)
    j = int(setup.j)
    if n < j + 1:
        raise ValueError(f"connection formula needs n >= {j + 1}, got {n}")
    b = connection_coeffs(setup, n)
    p = setup.params
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    total = np.zeros_like(arr)
    for i in range(j + 2):
        shifted = JacobiParams(p.a + 2.0 * i, p.b)
        total += b[i] * (1.0 - arr) ** i * jacobi_eval(n - i, shifted, arr)
    return float(total[0]) if np.isscalar(x) or np.ndim(x) == 0 else total
