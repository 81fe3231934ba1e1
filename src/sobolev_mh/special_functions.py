"""Gamma and Bessel primitives used by every layer above.

Self-contained: log-gamma via a 9-term Lanczos approximation in one numpy
pass; Bessel J of real order nu > -1 over a whole array of arguments at
once, and the entire function z_nu(x) = (x/2)^(-nu) J_nu(x) (DLMF 10.2.2)
that the limit functions are built from, all in plain double.  One region
test splits the arguments.  Where x^2 < 4 max(1, nu + 1) the ascending
series of Gamma(nu+1) z_nu does not cancel, and 24 terms of it give z_nu
(times 1/Gamma(nu+1)) and J_nu (times (x/2)^nu / Gamma(nu+1), formed as one
exp).  Elsewhere J_nu comes from Miller's backward recurrence over the
orders nu - floor(nu) + m (Gautschi, SIAM Rev. 9, 1967), normalized by
Neumann's expansion of (x/2)^nu0 (Watson, *Treatise*, 5.21), and z_nu
divides it by (x/2)^nu.  Bessel zeros come from one pass of the
sign-change scan shared with the polynomial and limit-function zeros
(``kernels._scan_zeros``: a 0.18 grid up to a little past McMahon's
estimate of the last zero wanted, then the safeguarded secant method of
``kernels.grid_roots`` on values of J_nu).
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

def _series(nu, x):
    # Gamma(nu+1) z_nu(x) = sum_k (-x^2/4)^k / (k! (nu+1)_k) over the array
    # x, where x^2 < 4 max(1, nu + 1): each term is then at most 1/k! of the
    # first in size, so the sum does not cancel and 24 terms are exact
    q2 = -0.25 * x * x
    term = total = np.ones(len(x))
    for k in range(1, 24):
        term = term * q2 / (k * (k + nu))
        total = total + term
    return total


def _miller(nu, x):
    # J_nu by Miller's backward recurrence f_m = (2 (nu0+m+1)/x) f_{m+1} - f_{m+2}
    # over the orders nu0 + m (nu0 = nu - floor(nu), or nu for nu < 0), from
    # f = 1 at each point's even start K(x) down to m = 0, normalized by Neumann's
    # (x/2)^nu0 / Gamma(nu0+1) = sum_k w_k J_{nu0+2k} (at nu0 the w_k grow like
    # k^nu0; at nu they would grow like binomials).  Every 8 orders a point past
    # 1e200 is scaled by 1e-200.  Each point has its own start and scaling, so an
    # array element has the same bits as the scalar
    keep = math.floor(max(nu, 0.0))
    nu0 = nu - keep
    top = np.maximum(x, nu)
    start = np.ceil(top - nu0 + 12.0 * np.cbrt(top) + 25.0)
    start += start % 2.0
    order = np.argsort(start)
    cuts = np.flatnonzero(np.diff(start[order])) + 1
    seeds = {int(start[idx[0]]): idx for idx in np.split(order, cuts)}
    m_max = max(seeds)
    # w_0 = 1, w_k = (nu0 + 2k)/k prod_{0<l<k} (nu0 + l)/l
    k = np.arange(1.0, m_max // 2 + 1)
    w = np.concatenate(([1.0], (nu0 + 2.0 * k) / k
                        * np.cumprod(np.concatenate(([1.0], (nu0 + k[:-1]) / k[:-1])))))
    two_x = 2.0 / x
    f, f_up, t, total, kept = np.zeros((5, len(x)))
    for m in range(m_max, -1, -1):
        np.multiply(two_x, nu0 + m + 1.0, out=t)
        t *= f
        t -= f_up
        f, f_up, t = t, f, f_up
        if m in seeds:
            f[seeds[m]] = 1.0
        if m % 2 == 0:
            total += w[m // 2] * f
        if m == keep:
            kept[:] = f
        if m % 8 == 0:
            big = np.abs(f) > 1e200
            if big.any():
                for v in (f, f_up, total, kept):
                    v[big] *= 1e-200
    return kept / total * np.exp(nu0 * np.log(0.5 * x) - log_gamma(nu0 + 1.0))


def _near(nu, x):  # the region of the ascending series
    return x * x < 4.0 * max(1.0, nu + 1.0)


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
    near = _near(nu, flat) & ~zero
    far = ~(near | zero)
    v = flat[near]
    out[near] = _series(nu, v) * np.exp(nu * np.log(0.5 * v) - log_gamma(nu + 1.0))
    if far.any():
        out[far] = _miller(nu, flat[far])
    if xa.ndim == 0:
        return float(out[0])
    return out.reshape(xa.shape)


def _bessel_z(nu, x):
    # the entire function z_nu(x) = (x/2)^(-nu) J_nu(x) on the 1-d array
    # x >= 0, z_nu(0) = 1/Gamma(nu+1): its series in the series region and
    # J_nu / (x/2)^nu outside it, where x/2 >= 1.  |J_nu| <= 1 there, so where
    # the power underflows to 0 so does z_nu, and J_nu (a sweep over nu orders)
    # is not formed
    near = _near(nu, x)
    out = np.zeros(len(x))
    out[near] = _series(nu, x[near]) * math.exp(-log_gamma(nu + 1.0))
    far = np.flatnonzero(~near)
    power = (0.5 * x[far]) ** -nu
    live = power > 0.0
    if live.any():
        out[far[live]] = bessel_j(nu, x[far[live]]) * power[live]
    return out


def _mcmahon_guess(nu, i):
    beta = (i + 0.5 * nu - 0.25) * math.pi
    mu = 4.0 * nu * nu
    try:
        guess = (beta
                 - (mu - 1.0) / (8.0 * beta)
                 - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * (8.0 * beta) ** 3))
    except OverflowError:
        guess = math.inf
    if not math.isfinite(guess):
        raise OverflowError(f"McMahon's estimate of zero {i} of the Bessel function "
                            f"of order {nu:g} is beyond the double range")
    return guess


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
