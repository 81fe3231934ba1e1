"""High-precision mpmath values of the Sobolev closed forms, a test oracle.

Written from the textbook formulas rather than the program's log-space
rewrite: d_n(k) = (n+a+b+1)_k / 2^k * C(n+a, n-k) (Pochhammer symbol times
P_{n-k}^{(a+k, b+k)}(1)), h_n = 2^(a+b+1) Gamma(n+a+1) Gamma(n+b+1) /
((2n+a+b+1) Gamma(n+a+b+1) n!), kernel sums term by term, and the
connection system from the derivatives Q_n^(k)(1) = d_n(k) - c_n K^{(j,k)}
without the k = j rearrangement.  The inputs are the binary64 exponents and
mass values the program itself uses.  Bessel J and the limit functions
L(x) = sum_i b_i 2^i (x/2)^(-alpha) J_{alpha+2i}(x) come from mpmath's
besselj at the binary64 arguments; their coefficients at a subcritical or
critical mass, from the limit system solved in exact rationals.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from sobolev_mh.sobolev import mass


def coeff_error(got, ref):
    """Largest relative error of the coefficients ``got`` over the nonzero
    reference ones; those the reference has as exact zeros (below the mass
    order) must be exact zeros too."""
    ref = np.array([float(v) for v in ref])
    nz = ref != 0.0
    assert np.all(got[~nz] == 0.0)
    return float(np.max(np.abs(got[nz] - ref[nz]) / np.abs(ref[nz])))


def besselj(nu, x, dps=40):
    """J_nu(x) rounded to a double."""
    with mp.workdps(dps):
        return float(mp.besselj(mp.mpf(nu), mp.mpf(x)))


def limit_value(lf, x, dps=40):
    """The limit function of ``lf`` at x >= 0 rounded to a double; at x = 0
    its limit b_0 / Gamma(alpha + 1)."""
    with mp.workdps(dps):
        a = mp.mpf(lf.alpha)
        if x == 0.0:
            return float(mp.mpf(lf.b[0]) / mp.gamma(a + 1))
        x = mp.mpf(x)
        return float(mp.fsum(mp.mpf(b) * 2 ** i * (x / 2) ** -a * mp.besselj(a + 2 * i, x)
                             for i, b in enumerate(lf.b)))


def exact_limit_coeffs(alpha, j, sigma=1):
    """b_0..b_{j+1} as Fractions: the textbook triangular system
    sum_{i<=k} C(k,i) (-1)^i i! 2^i / ((alpha+k+1)...(alpha+k+i)) b_i = lead_k
    with lead_k = sigma (k - j)/(alpha + j + k + 1) + 1 - sigma, so sigma = 1
    is subcritical and sigma = M/(M + G) critical."""
    a, sigma = Fraction(alpha), Fraction(sigma)

    def entry(i, k):
        return Fraction(2 ** i) / math.prod(a + k + m for m in range(1, i + 1))

    b = []
    for k in range(j + 2):
        acc = sigma * (k - j) / (a + j + k + 1) + 1 - sigma
        for i in range(k):
            acc -= math.comb(k, i) * (-1) ** i * math.factorial(i) * entry(i, k) * b[i]
        b.append(acc / ((-1) ** k * math.factorial(k) * entry(k, k)))
    return b


def limit_zeros(lf, count, dps=40):
    """The first ``count`` zeros of the limit function of ``lf`` above
    x = 1e-3: the sign changes on [1e-3, 1] of Gamma(alpha+1) L, of order
    b_0 there, and on the integers from 1 of sum_i b_i 2^i J_{alpha+2i}, each
    refined by ``findroot`` on its bracket, rounded to doubles."""
    with mp.workdps(dps):
        a = mp.mpf(lf.alpha)
        b = [mp.mpf(v) for v in lf.b]

        def f(x):
            return mp.fsum(bi * 2 ** i * mp.besselj(a + 2 * i, x) for i, bi in enumerate(b))

        def g(x):
            return f(x) * mp.gamma(a + 1) / (x / 2) ** a

        lo = mp.mpf("1e-3")
        roots = [] if g(lo) * g(1) > 0 else [float(mp.findroot(g, (lo, 1), solver="anderson"))]
        x, fx = mp.mpf(1), f(1)
        while len(roots) < count:
            fy = f(x + 1)
            if fx * fy < 0:
                roots.append(float(mp.findroot(f, (x, x + 1), solver="anderson")))
            x, fx = x + 1, fy
        return np.array(roots[:count])


class SobolevOracle:
    def __init__(self, setup, n_max, dps=50):
        self.ctx = mp.workdps(dps)
        with self.ctx:
            self.a = mp.mpf(setup.params.a)
            self.b = mp.mpf(setup.params.b)
            self.j = int(setup.j)
            self.setup = setup
            self.h = [self._h(i) for i in range(n_max + 1)]
            self.dj = [self.d(i, self.j) for i in range(n_max + 1)]

    def d(self, n, k, a=None):
        a = self.a if a is None else a
        if k > n:
            return mp.mpf(0)
        return mp.rf(n + a + self.b + 1, k) / mp.mpf(2) ** k * mp.binomial(n + a, n - k)

    def _h(self, n):
        a, b = self.a, self.b
        return (mp.mpf(2) ** (a + b + 1) * mp.gamma(n + a + 1) * mp.gamma(n + b + 1)
                / ((2 * n + a + b + 1) * mp.gamma(n + a + b + 1) * mp.factorial(n)))

    def kernel(self, m, k):
        """K_m^{(j,k)}(1,1)."""
        with self.ctx:
            return mp.fsum(self.dj[i] * self.d(i, k) / self.h[i]
                           for i in range(max(self.j, k), m + 1))

    def _c(self, n):
        Mn = mp.mpf(mass(self.setup.mass, n))
        return Mn * self.dj[n] / (1 + Mn * self.kernel(n - 1, self.j))

    def coeffs(self, n):
        """Jacobi coefficients of the degree-n Sobolev polynomial."""
        with self.ctx:
            c = self._c(n)
            return [-c * self.dj[i] / self.h[i] for i in range(n)] + [mp.mpf(1)]

    def connection(self, n):
        """b_0(n)..b_{j+1}(n) by forward substitution of
        Q_n^(k)(1) = sum_{i<=k} C(k,i) (-1)^i i! b_i P_{n-i}^{(a+2i,b)(k-i)}(1)."""
        with self.ctx:
            c = self._c(n)
            b = []
            for k in range(self.j + 2):
                acc = self.d(n, k) - c * self.kernel(n - 1, k)
                for i in range(k + 1):
                    e = (mp.binomial(k, i) * (-1) ** i * mp.factorial(i)
                         * self.d(n - i, k - i, self.a + 2 * i))
                    if i < k:
                        acc -= e * b[i]
                    else:
                        b.append(acc / e)
            return b


def series_roots(series, guesses, dps=60):
    """The zeros of a binary64 Jacobi series near each of ``guesses``, as
    mpf values: mpmath Clenshaw on the series' own coefficients and on its
    own binary64 recurrence (``series.recurrence``), so that the polynomial
    is exactly the one the program evaluates, and a secant iteration from
    the guess at ``dps`` digits."""
    with mp.workdps(dps):
        A, B, C = ([mp.mpf(v) for v in r.tolist()] for r in series.recurrence)
        c = [mp.mpf(v) for v in series.coeffs.tolist()]

        def f(x):
            u1 = u2 = mp.mpf(0)
            for k in range(len(c) - 1, -1, -1):
                u1, u2 = (A[k] * x + B[k]) * u1 + c[k] - C[k + 1] * u2, u1
            return u1

        roots = []
        for g in guesses:
            x0, x1 = mp.mpf(g), mp.mpf(g) + mp.mpf(2) ** -60
            f0, f1 = f(x0), f(x1)
            while abs(x1 - x0) > mp.mpf(10) ** (15 - dps) * max(1, abs(x1)) and f1 != f0:
                x0, x1, f0 = x1, x1 - f1 * (x1 - x0) / (f1 - f0), f1
                f1 = f(x1)
            roots.append(x1)
        return roots
