"""Classical Jacobi polynomials under the binomial normalization P_n(1) = C(n+a, n).

Values at 1, derivative values at 1 and squared norms are closed Gamma
expressions evaluated in log space; pointwise evaluation, of a single degree
or of a series, is Clenshaw's backward three-term recurrence.  The short
connection formulas against parameter-shifted polynomials, at finite degree
and in the Mehler-Heine limit, share one triangular solve.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import kernels
from .special_functions import log_gamma


@dataclass(frozen=True)
class JacobiParams:
    """Weight exponents (alpha, beta), each > -1; exact Fractions welcome."""

    alpha: float | Fraction
    beta: float | Fraction

    def __post_init__(self):
        if not (self.alpha > -1 and self.beta > -1):
            raise ValueError(f"weight exponents must exceed -1: {self.alpha}, {self.beta}")

    # converted once per instance: the exponents may be exact Fractions
    @cached_property
    def a(self):
        return float(self.alpha)

    @cached_property
    def b(self):
        return float(self.beta)


@dataclass(frozen=True)
class JacobiSeries:
    """Polynomial stored as coefficients against {P_0, ..., P_n} for fixed params."""

    params: JacobiParams
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=np.float64))
        if self.coeffs.ndim != 1 or len(self.coeffs) == 0:
            raise ValueError("coefficients must be a nonempty 1-d array")


def jacobi_eval(n, params, x):
    """P_n at x (scalar or array): Clenshaw on the unit coefficient vector e_n."""
    n = int(n)
    if n < 0:
        raise ValueError("degree must be nonnegative")
    unit = np.zeros(n + 1)
    unit[n] = 1.0
    return clenshaw_eval(JacobiSeries(params, unit), x)


@lru_cache(maxsize=None)
def _log_d(n, k, a, b):
    # log of the k-th derivative of P_n at 1; caller guarantees 0 <= k <= n
    if k == 0:
        return log_gamma(n + a + 1.0) - log_gamma(n + 1.0) - log_gamma(a + 1.0)
    return (-k * math.log(2.0)
            + log_gamma(n + a + b + k + 1.0) - log_gamma(n + a + b + 1.0)
            + log_gamma(n + a + 1.0) - log_gamma(n - k + 1.0) - log_gamma(a + k + 1.0))


def value_at_one(n, alpha):
    """P_n(1) = Gamma(n+alpha+1) / (Gamma(n+1) Gamma(alpha+1))."""
    return math.exp(_log_d(int(n), 0, float(alpha), 0.0))


def deriv_at_one(n, k, params):
    """k-th derivative of P_n at x = 1 (0 when k exceeds the degree)."""
    n = int(n)
    k = int(k)
    if n < 0 or k < 0:
        raise ValueError("degree and order must be nonnegative")
    return 0.0 if k > n else math.exp(_log_d(n, k, params.a, params.b))


def solve_connection(rhs, entry, size):
    """Forward substitution of sum_{i<=k} C(k,i) (-1)^i i! entry(i, k) b_i = rhs(k)
    for b_0..b_{size-1}; the lower-triangular system of a short connection
    formula against (1-x)^i P_{n-i}^{(alpha+2i, beta)} and of its limit."""
    b = np.empty(size)
    for k in range(size):
        acc = rhs(k)
        sign = 1.0
        fact = 1.0
        for i in range(k):
            acc -= b[i] * math.comb(k, i) * sign * fact * entry(i, k)
            sign = -sign
            fact *= i + 1.0
        b[k] = acc / (sign * fact * entry(k, k))
    return b


@lru_cache(maxsize=None)
def _log_norm2(n, a, b):
    # 1/Gamma(n+a+b+1) rewritten via Gamma(n+a+b+2) so the log-space factors
    # stay positive for every n >= 0 with a+b > -2; the leftover rational
    # factor is returned separately (it can be a removable 0/0 at n = 0)
    lg = ((a + b + 1.0) * math.log(2.0)
          + log_gamma(n + a + 1.0) + log_gamma(n + b + 1.0)
          - log_gamma(n + 1.0) - log_gamma(n + a + b + 2.0))
    t = n + a + b + 1.0
    factor = 1.0 if (n == 0 and t == 0.0) else t / (t + n)
    return lg, factor


def norm2(n, params):
    """Squared weighted L2 norm of P_n."""
    n = int(n)
    if n < 0:
        raise ValueError("degree must be nonnegative")
    lg, factor = _log_norm2(n, params.a, params.b)
    return math.exp(lg) * factor


def clenshaw_eval(series, x):
    """Evaluate a Jacobi series at x (scalar or array) by backward recurrence."""
    c = series.coeffs
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    A, B, C = kernels.jacobi_recurrence(len(c) + 1, series.params.a, series.params.b)
    out = kernels.clenshaw_batch(c, A, B, C, arr)
    return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out


def derivative_series(series):
    """Series of the derivative, expressed in the (alpha+1, beta+1) basis."""
    p = series.params
    c = series.coeffs
    if len(c) == 1:
        dc = np.zeros(1)
    else:
        i = np.arange(1, len(c), dtype=np.float64)
        dc = c[1:] * (i + p.a + p.b + 1.0) / 2.0
    return JacobiSeries(JacobiParams(p.a + 1.0, p.b + 1.0), dc)


def scaled_eval(n, params, u):
    """n^(-alpha) P_n(1 - u^2/(2 n^2)); the endpoint-scaled evaluation."""
    n = int(n)
    if n < 1:
        raise ValueError("degree must be positive")
    uu = np.asarray(u, dtype=np.float64)
    if np.any(uu * uu > 4.0 * n * n):
        raise ValueError("scaled argument leaves [-1, 1]")
    x = 1.0 - uu * uu / (2.0 * n * n)
    scale = math.exp(-params.a * math.log(n))
    return scale * jacobi_eval(n, params, x)
