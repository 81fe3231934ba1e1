"""High-precision mpmath values of the Sobolev closed forms, a test oracle.

Written from the textbook formulas rather than the program's log-space
rewrite: d_n(k) = (n+a+b+1)_k / 2^k * C(n+a, n-k) (Pochhammer symbol times
P_{n-k}^{(a+k, b+k)}(1)), h_n = 2^(a+b+1) Gamma(n+a+1) Gamma(n+b+1) /
((2n+a+b+1) Gamma(n+a+b+1) n!), kernel sums term by term, and the
connection system from the derivatives Q_n^(k)(1) = d_n(k) - c_n K^{(j,k)}
without the k = j rearrangement.  The inputs are the binary64 exponents and
mass values the program itself uses.
"""

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
