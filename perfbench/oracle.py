"""Independent zero oracle: eigenvalues of the comrade matrix.

A degree-n Jacobi series Q = sum_i c_i P_i (c_n = 1) has the same zeros as
p_n + sum_{i<n} e_i p_i in the orthonormal basis p_i = P_i / sqrt(h_i),
with e_i = c_i sqrt(h_i / h_n).  Its zeros are the eigenvalues of the
symmetric Jacobi matrix of the weight with the last row corrected by
-a_n e (Barnett 1975; Boyd, SIAM Rev. 55 (2013) 375).  The construction
shares nothing with the bracket-and-refine path it checks.
"""

import numpy as np
from scipy.linalg import eigvals
from scipy.special import gammaln


def log_norm2(i, a, b):
    """log h_i of the Jacobi polynomial P_i^(a,b) in the P_i(1) = C(i+a, i)
    normalization, for an integer array i >= 0."""
    i = np.asarray(i, dtype=np.float64)
    s = 2.0 * i + a + b + 1.0
    # h_0 = 2^(a+b+1) Gamma(a+1) Gamma(b+1) / Gamma(a+b+2) also covers a+b = -1
    with np.errstate(divide="ignore", invalid="ignore"):
        generic = ((a + b + 1.0) * np.log(2.0) - np.log(np.abs(s))
                   + gammaln(i + a + 1.0) + gammaln(i + b + 1.0)
                   - gammaln(i + 1.0) - gammaln(i + a + b + 1.0))
    h0 = ((a + b + 1.0) * np.log(2.0) + gammaln(a + 1.0) + gammaln(b + 1.0)
          - gammaln(a + b + 2.0))
    return np.where(i == 0, h0, generic)


def jacobi_matrix(n, a, b):
    """Diagonal and off-diagonal of the n x n orthonormal Jacobi matrix."""
    i = np.arange(n, dtype=np.float64)
    s = 2.0 * i + a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = (b * b - a * a) / (s * (s + 2.0))
    diag[0] = (b - a) / (a + b + 2.0)
    k = np.arange(1, n, dtype=np.float64)
    t = 2.0 * k + a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        off2 = 4.0 * k * (k + a) * (k + b) * (k + a + b) / (t * t * (t + 1.0) * (t - 1.0))
    if n > 1:
        # k = 1 with the (1 + a + b) factor cancelled, valid at a + b = -1
        off2[0] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
    return diag, np.sqrt(off2)


def comrade_zeros(coeffs, a, b):
    """Eigenvalue zeros of sum_i coeffs[i] P_i^(a,b), by decreasing real
    part; complex values are kept so a caller sees any imaginary part."""
    c = np.asarray(coeffs, dtype=np.float64)
    n = len(c) - 1
    lh = log_norm2(np.arange(n + 1), a, b)
    e = c[:n] / c[n] * np.exp(0.5 * (lh[:n] - lh[n]))
    diag, off = jacobi_matrix(n + 1, a, b)
    m = np.diag(diag[:n]) + np.diag(off[:n - 1], 1) + np.diag(off[:n - 1], -1)
    m[n - 1, :] -= off[n - 1] * e
    z = eigvals(m)
    return z[np.argsort(-z.real, kind="stable")]
