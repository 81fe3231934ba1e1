"""Classical Jacobi polynomials under the binomial normalization P_n(1) = C(n+a, n).

Values at 1, derivative values at 1 and squared norms are closed Gamma
expressions of a degree or an array of degrees, kept as logs until the
final value (one ``log_gamma`` pass each, nothing cached); pointwise
evaluation, of a single degree or of a series, is Clenshaw's backward
three-term recurrence.  The short connection formulas against
parameter-shifted polynomials, at finite degree and in the Mehler-Heine
limit, share one triangular solve.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

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
    n = int(_degrees(n))
    unit = np.zeros(n + 1)
    unit[n] = 1.0
    return clenshaw_eval(JacobiSeries(params, unit), x)


_LOG_MAX = math.log(np.finfo(np.float64).max)


def _exp(log_value):
    # exp of a log or an array of logs; like math.exp, it raises
    # OverflowError where the value is not representable
    if np.any(log_value > _LOG_MAX):
        raise OverflowError("math range error")
    out = np.exp(log_value)
    return float(out) if np.ndim(out) == 0 else out


def _degrees(n):
    n = np.asarray(n, dtype=np.int64)
    if np.any(n < 0):
        raise ValueError("degree must be nonnegative")
    return n


def _log_d(n, k, a, b):
    # log of the k-th derivative of P_n at 1, elementwise over n, k and a
    # (broadcast); caller guarantees 0 <= k <= n.  Gamma(s+k)/Gamma(s), s =
    # n+a+b+1, is the empty product at k = 0: s = 1 there keeps n = 0 legal
    n, k, a = np.broadcast_arrays(n, k, a)
    first = k == 0
    lg = log_gamma(np.stack([np.where(first, 1.0, n + a + b + k + 1.0),
                             np.where(first, 1.0, n + a + b + 1.0),
                             n + a + 1.0, n - k + 1.0, a + k + 1.0]))
    return -k * math.log(2.0) + lg[0] - lg[1] + lg[2] - lg[3] - lg[4]


def value_at_one(n, alpha):
    """P_n(1) = Gamma(n+alpha+1) / (Gamma(n+1) Gamma(alpha+1))."""
    return deriv_at_one(n, 0, JacobiParams(alpha, 0.0))


def deriv_at_one(n, k, params):
    """k-th derivative of P_n at x = 1 (0 when k exceeds the degree); ``n``
    may be an array of degrees."""
    n, k = _degrees(n), int(k)
    if k < 0:
        raise ValueError("degree and order must be nonnegative")
    return _exp(np.where(k > n, -np.inf, _log_d(np.maximum(n, k), k, params.a, params.b)))


def solve_connection(rhs, entry, size):
    """Forward substitution of sum_{i<=k} C(k,i) (-1)^i i! entry(i, k) b_i = rhs(k)
    for b_0..b_{size-1}; the lower-triangular system of a short connection
    formula against (1-x)^i P_{n-i}^{(alpha+2i, beta)} and of its limit.
    Array-valued ``rhs`` and ``entry`` solve one system per element."""
    b = []
    for k in range(size):
        acc = rhs(k)
        sign = 1.0
        fact = 1.0
        for i in range(k):
            acc = acc - b[i] * math.comb(k, i) * sign * fact * entry(i, k)
            sign = -sign
            fact *= i + 1.0
        b.append(acc / (sign * fact * entry(k, k)))
    return np.array(b)


def _log_norm2(n, a, b):
    # log h_n, elementwise over n: 1/Gamma(n+a+b+1) rewritten via
    # Gamma(n+a+b+2) keeps every log-Gamma argument positive for a+b > -2;
    # the leftover factor t/(t+n), t = n+a+b+1, is 1 at n = 0 (maybe 0/0)
    t = np.where(n == 0, 1.0, n + a + b + 1.0)
    lg = log_gamma(np.stack([n + a + 1.0, n + b + 1.0, n + 1.0, n + a + b + 2.0]))
    return ((a + b + 1.0) * math.log(2.0) + lg[0] + lg[1] - lg[2] - lg[3]
            + np.log(t / (t + n)))


def norm2(n, params):
    """Squared weighted L2 norm of P_n; ``n`` may be an array of degrees."""
    return _exp(_log_norm2(_degrees(n), params.a, params.b))


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
