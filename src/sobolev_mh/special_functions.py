"""Gamma and Bessel primitives used by every layer above.

Self-contained: log-gamma via a 9-term Lanczos approximation in one numpy
pass; Bessel J of real order nu > -1 over a whole array of
arguments at once, and the entire function z_nu(x) = (x/2)^(-nu) J_nu(x)
(DLMF 10.2.2) that the limit functions are built from.  Below the
crossover max(14, 1.4|nu|) both come from the ascending series of z_nu,
started at 1/Gamma(nu+1) and summed in extended precision; J_nu multiplies
it by (x/2)^nu.  Above the crossover J_nu comes from the large-argument
expansion (DLMF 10.17) at a base order in [-1/2, 1/2) followed by the
upward order recurrence (DLMF 10.6), and z_nu divides it by (x/2)^nu.
Bessel zeros come from one pass of the sign-change scan shared with the
polynomial and limit-function zeros (``kernels._scan_zeros``: a 0.18 grid
up to a little past McMahon's estimate of the last zero wanted, then the
safeguarded secant method of ``kernels.grid_roots`` on values of J_nu).
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
    """Natural log of the Gamma function for x > 0, elementwise in one numpy
    pass; a scalar gives a float."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(x > 0.0):
        raise ValueError(f"log_gamma requires a positive argument, got {np.min(x)}")
    low = x < 0.5
    if np.any(low):
        # reflection keeps the Lanczos sum in its accurate range
        out = np.asarray(log_gamma(np.where(low, 1.0 - x, x)))
        out[low] = np.log(math.pi / np.sin(math.pi * x[low])) - out[low]
    else:
        series = _LANCZOS[0]
        for i in range(1, 9):
            series += _LANCZOS[i] / (x + i - 1.0)
        t = x + _LANCZOS_G - 0.5
        out = _HALF_LOG_2PI + (x - 0.5) * np.log(t) - t + np.log(series)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Bessel J of the first kind, real order nu > -1, x >= 0
# ---------------------------------------------------------------------------

_LD = np.longdouble


def _series(nu, x, p):
    # (x/2)^p z_nu(x) over the array x by the ascending series of the entire
    # function z_nu = sum_k (-x^2/4)^k / (k! Gamma(nu+k+1)), accumulated in
    # extended precision (its range holds the products of z_nu and (x/2)^p
    # that a double does not, its precision keeps the alternating-term
    # cancellation floor below 1e-12 up to the crossover).  A point stops at
    # its first term at most 1e-22 of its sum; the terms are formed 16 at a
    # time, one row per k
    q = x.astype(_LD) * _LD(0.5)
    nq2 = -(q * q)
    term = q ** p * np.exp(-_LD(log_gamma(nu + 1.0)))
    total = term
    out = np.empty(len(x))
    idx = np.arange(len(x))  # points still summing; the rest are in out
    for k0 in range(1, 400, 16):
        k = np.arange(k0, min(k0 + 16, 400))[:, None]
        terms = nq2 / (k.astype(_LD) * (k + nu).astype(_LD))
        terms[0] *= term
        np.cumprod(terms, axis=0, out=terms)
        totals = total + np.cumsum(terms, axis=0)
        done = np.abs(terms) <= 1e-22 * np.abs(totals)
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


def _in_chunks(fn, x):
    # fn over the array x, 256 points at a time: the per-term 2-D arrays of
    # both branches stay small
    out = np.empty(len(x))
    for start in range(0, len(x), 256):
        out[start:start + 256] = fn(x[start:start + 256])
    return out


def _crossover(nu):
    return max(14.0, 1.4 * abs(nu))


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
    near = (flat < _crossover(nu)) & ~zero
    far = ~(near | zero)
    out[near] = _in_chunks(lambda v: _series(nu, v, nu), flat[near])
    out[far] = _in_chunks(lambda v: _upward_j(nu, v), flat[far])
    if xa.ndim == 0:
        return float(out[0])
    return out.reshape(xa.shape)


def _bessel_z(nu, x):
    # the entire function z_nu(x) = (x/2)^(-nu) J_nu(x) on the 1-d array
    # x >= 0, z_nu(0) = 1/Gamma(nu+1): its series below the crossover and
    # J_nu / (x/2)^nu above it, where x/2 >= 7 (the power underflows at worst)
    near = x < _crossover(nu)
    out = np.empty(len(x))
    out[near] = _in_chunks(lambda v: _series(nu, v, 0.0), x[near])
    if not near.all():
        far = x[~near]
        out[~near] = bessel_j(nu, far) * (0.5 * far) ** -nu
    return out


def _mcmahon_guess(nu, i):
    beta = (i + 0.5 * nu - 0.25) * math.pi
    mu = 4.0 * nu * nu
    try:
        return (beta
                - (mu - 1.0) / (8.0 * beta)
                - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * (8.0 * beta) ** 3))
    except OverflowError:
        raise OverflowError(f"McMahon's estimate of zero {i} of the Bessel function "
                            f"of order {nu:g} is beyond the double range") from None


def bessel_j_zero(nu, i):
    """i-th positive zero of J_nu (i >= 1), to about 1e-12."""
    nu = float(nu)
    if nu <= -1.0:
        raise ValueError(f"order must exceed -1, got {nu}")
    i = int(i)
    if i < 1:
        raise ValueError(f"zero index must be >= 1, got {i}")
    zeros = _scan_zeros(lambda x: bessel_j(nu, x), 0.18, _mcmahon_guess(nu, i) + 5.0, i)
    return float(zeros[i - 1])
