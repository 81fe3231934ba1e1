"""Gamma and Bessel primitives used by every layer above.

Self-contained: log-gamma via a 9-term Lanczos approximation; Bessel J of
real order nu > -1 over a whole array of arguments at once, by the
ascending series (extended-precision accumulation) below the crossover
max(14, 1.4|nu|) and above it by the large-argument expansion (DLMF 10.17)
at a base order in [-1/2, 1/2) followed by the upward order recurrence
(DLMF 10.6); and Bessel zeros, found by the scan-and-refine shared with
the limit-function zeros (``kernels._scan_zeros``: a 0.18 grid up to a
little past McMahon's estimate of the last zero wanted, then the
safeguarded Newton method shared with the polynomial zeros).
"""

import math

import numpy as np

from .kernels import _scan_zeros

# Lanczos g = 7, 9 terms; relative error of exp(log_gamma) is a few ulp for
# real positive arguments.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma(x):
    """Natural log of the Gamma function for x > 0."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"log_gamma requires a positive argument, got {x!r}")
    if x < 0.5:
        # reflection keeps the Lanczos sum in its accurate range
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    series = _LANCZOS[0]
    for i in range(1, 9):
        series += _LANCZOS[i] / (x + i - 1.0)
    t = x + _LANCZOS_G - 0.5
    return _HALF_LOG_2PI + (x - 0.5) * math.log(t) - t + math.log(series)


def gamma_ratio(n, a, b):
    """Gamma(n + a) / Gamma(n + b), evaluated in log space.

    Never overflows as long as the ratio itself is representable; the two
    arguments must avoid the poles, i.e. n + a > 0 and n + b > 0.
    """
    n = float(n)
    xa = n + float(a)
    xb = n + float(b)
    if xa <= 0.0 or xb <= 0.0:
        raise ValueError(f"gamma_ratio arguments hit a pole: n+a={xa}, n+b={xb}")
    return math.exp(log_gamma(xa) - log_gamma(xb))


# ---------------------------------------------------------------------------
# Bessel J of the first kind, real order nu > -1, x >= 0
# ---------------------------------------------------------------------------

_LD = np.longdouble


def _series_j(nu, x):
    # ascending series over the array x, accumulated in extended precision
    # to push the alternating-term cancellation floor below 1e-12 up to the
    # crossover.  A point stops at its first term below 1e-22 of its sum;
    # the terms are formed 16 at a time, one row per k
    q = x.astype(_LD) * _LD(0.5)
    nq2 = -(q * q)
    term = np.exp(nu * np.log(0.5 * x) - log_gamma(nu + 1.0)).astype(_LD)
    total = term
    out = np.empty(len(x))
    idx = np.arange(len(x))  # points still summing; the rest are in out
    for k0 in range(1, 400, 16):
        k = np.arange(k0, min(k0 + 16, 400))[:, None]
        terms = nq2 / (k.astype(_LD) * (k + nu).astype(_LD))
        terms[0] *= term
        np.cumprod(terms, axis=0, out=terms)
        totals = total + np.cumsum(terms, axis=0)
        done = np.abs(terms) <= 1e-22 * (np.abs(totals) + 1e-30)
        fin = done.any(axis=0)
        out[idx[fin]] = totals[done.argmax(axis=0)[fin], np.flatnonzero(fin)]
        live = ~fin
        idx, nq2, term, total = idx[live], nq2[live], terms[-1, live], totals[-1, live]
        if len(idx) == 0:
            return out
    out[idx] = total
    return out


def _asymptotic_j(nu, x):
    # large-argument expansion (DLMF 10.17.3); its P/Q terms decrease fast
    # for |nu| <= 0.5 and x >= 14.  A point sums its terms up to the first
    # one that fails to decrease (left out) or is below 1e-18 (kept); all
    # 39 terms of every point are formed at once, one row per k
    k = np.arange(1, 40)[:, None]
    t = np.cumprod((4.0 * nu * nu - (2.0 * k - 1.0) ** 2) / (8.0 * k * x), axis=0)
    a = np.abs(t)
    keep = np.logical_and.accumulate(
        np.vstack([np.ones((1, len(x)), dtype=bool),
                   (a[1:] < a[:-1]) & (a[:-1] >= 1e-18)]), axis=0)
    t = np.where(keep, np.where(k % 4 < 2, t, -t), 0.0)
    # cumulative sums add in k order whatever the number of points
    p = 1.0 + np.cumsum(t[1::2], axis=0)[-1]
    q = np.cumsum(t[0::2], axis=0)[-1]
    omega = x - (0.5 * nu + 0.25) * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (p * np.cos(omega) - q * np.sin(omega))


def _upward_j(nu, x):
    # reduce to a base order in [-0.5, 0.5) where the asymptotic expansion
    # converges fastest, then recur upward (DLMF 10.6.1; stable for x above
    # the crossover)
    m = math.floor(nu + 0.5)
    nu0 = nu - m
    j0 = _asymptotic_j(nu0, x)
    if m == 0:
        return j0
    j1 = _asymptotic_j(nu0 + 1.0, x)
    if m == -1:
        return (2.0 * nu0 / x) * j0 - j1
    s = nu0 + 1.0
    for _ in range(m - 1):
        j0, j1 = j1, (2.0 * s / x) * j1 - j0
        s += 1.0
    return j1


def bessel_j(nu, x):
    """Bessel function of the first kind J_nu(x) for nu > -1, x >= 0.

    ``x`` may be a scalar (the result is a float) or an array (the result
    is an array of its shape).
    """
    nu = float(nu)
    if nu <= -1.0:
        raise ValueError(f"order must exceed -1, got {nu}")
    xa = np.asarray(x, dtype=np.float64)
    flat = xa.ravel()
    if np.any(flat < 0.0):
        raise ValueError(f"argument must be nonnegative, got {flat.min()}")
    out = np.empty(len(flat))
    zero = flat == 0.0
    out[zero] = 1.0 if nu == 0.0 else (0.0 if nu > 0.0 else math.inf)
    near = (flat < max(14.0, 1.4 * abs(nu))) & ~zero
    for branch, fn in ((near, _series_j), (~(near | zero), _upward_j)):
        idx = np.flatnonzero(branch)
        # 256 points at a time keep the per-term 2-D arrays small
        for start in range(0, len(idx), 256):
            part = idx[start:start + 256]
            out[part] = fn(nu, flat[part])
    if xa.ndim == 0:
        return float(out[0])
    return out.reshape(xa.shape)


def _mcmahon_guess(nu, i):
    beta = (i + 0.5 * nu - 0.25) * math.pi
    mu = 4.0 * nu * nu
    return (beta
            - (mu - 1.0) / (8.0 * beta)
            - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * (8.0 * beta) ** 3))


_zero_cache = {}  # order -> its first zeros, as many as asked for so far


def bessel_j_zero(nu, i):
    """i-th positive zero of J_nu (i >= 1), to about 1e-12."""
    nu = float(nu)
    if nu <= -1.0:
        raise ValueError(f"order must exceed -1, got {nu}")
    i = int(i)
    if i < 1:
        raise ValueError(f"zero index must be >= 1, got {i}")
    zeros = _zero_cache.get(nu, ())
    if len(zeros) < i:

        def fdf(x):
            # J'_nu via the order-raising relation; avoids orders below -1
            jx = bessel_j(nu, x)
            return jx, (nu / x) * jx - bessel_j(nu + 1.0, x)

        zeros = _zero_cache[nu] = _scan_zeros(
            lambda x: bessel_j(nu, x), fdf, 0.18, _mcmahon_guess(nu, i) + 5.0, i).tolist()
    return zeros[i - 1]
