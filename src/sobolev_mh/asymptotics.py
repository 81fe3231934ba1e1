"""Regime classification and endpoint limit functions.

The scaled polynomials n^(-alpha) Q_n(1 - x^2/(2n^2)) converge to a short
combination of Bessel functions whose coefficients depend on how the mass
exponent gamma compares with 2(alpha + 2j + 1).  They are the limits of
``connection_coeffs``: one triangular solve (``solve_connection``), in exact
rationals, with the entries 2^i / prod_{m=1..i} (alpha + k + m) and the lead
(derivative-ratio limit)
  sigma (k - j)/(alpha + j + k + 1) + 1 - sigma,
  sigma = M/(M + G), G = Gamma(alpha+j+1)^2 2^(alpha+beta+2j+1) (alpha+2j+1),
with M = lim M_n n^gamma (``MassSequence.m``) when critical and sigma = 1
when subcritical; supercritical, or M = 0, is classical: b = e_0.  Its sign
structure is pinned by exact finite-degree computation (see the test suite),
which settles the sign of the G term.

The limit function is L(x) = sum_i b_i 2^i (x/2)^(-alpha) J_{alpha+2i}(x).
It is evaluated as sum_i b_i 2^i (x/2)^(2i) z_{alpha+2i}(x) from the entire
functions z_nu(x) = (x/2)^(-nu) J_nu(x): no singular factor is formed, so
one formula holds from x = 0 on.  ``limit_eval`` is its value on whole arrays,
one array Bessel evaluation per nonzero term, in plain double.  Near its
zeros L is about (x/2)^(-alpha), subnormal from alpha ~ 151 at beta = 0, so
its zeros come from the sum (x/2)^alpha L from x = 2 on (``zeros.limit_zeros``).
"""

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .jacobi import _LOG_MAX, JacobiParams, solve_connection
from .sobolev import MassKind, MassSequence, SobolevSetup
from .special_functions import _bessel_z, log_gamma


class RegimeKind(enum.Enum):
    SUPERCRITICAL = "supercritical"
    CRITICAL = "critical"
    SUBCRITICAL = "subcritical"


@dataclass(frozen=True)
class Regime:
    kind: RegimeKind
    threshold: float | Fraction


def classify_regime(gamma, alpha, j):
    """Trichotomy of gamma against 2(alpha + 2j + 1).

    Pass gamma and alpha as Fractions (or ints) for an exact knife-edge
    comparison; floats compare as floats.
    """
    if float(alpha) <= -1.0:
        raise ValueError("alpha must exceed -1")
    j = int(j)
    threshold = 2 * (alpha + 2 * j + 1)
    if gamma > threshold:
        kind = RegimeKind.SUPERCRITICAL
    elif gamma == threshold:
        kind = RegimeKind.CRITICAL
    else:
        kind = RegimeKind.SUBCRITICAL
    return Regime(kind=kind, threshold=threshold)


def _log_G(a, b, j):
    # log of G / (a+2j+1), G = Gamma(a+j+1)^2 2^(a+b+2j+1) (a+2j+1)
    return 2.0 * log_gamma(a + j + 1.0) + (a + b + 2.0 * j + 1.0) * math.log(2.0)


def _G(a, b, j, what="the limit constant G", factor=1.0):
    # G, or an OverflowError naming ``what`` where G times ``factor`` is not
    # a double (alpha = 91 at j = 0)
    log_g = _log_G(a, b, j)
    if log_g + math.log((a + 2.0 * j + 1.0) * factor) > _LOG_MAX:
        raise OverflowError(f"{what} is above the double range at alpha = {a:g}, "
                            f"beta = {b:g}, j = {j}")
    return math.exp(log_g) * (a + 2.0 * j + 1.0)


def critical_mass_threshold(alpha, beta, j):
    """Mass level above which the largest zero leaves [-1, 1] in the
    knife-edge regime: 2^(a+b+2j+1) (a+j+1) (a+2j+1) Gamma(a+j+1)^2 / j."""
    j = int(j)
    if j < 1:
        raise ValueError("threshold needs a positive derivative order")
    a = float(alpha)
    G = _G(a, float(beta), j, "the critical mass threshold", (a + j + 1.0) / j)
    return G * (a + j + 1.0) / j


@dataclass(frozen=True)
class LimitFunction:
    alpha: float
    b: np.ndarray = field(repr=False)
    regime: Regime

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))


def limit_coeffs(setup):
    """Bessel-combination coefficients of the endpoint limit function."""
    p = setup.params
    j = int(setup.j)
    regime = classify_regime(setup.mass.gamma, p.alpha, j)
    a = p.a
    if regime.kind is RegimeKind.SUPERCRITICAL or setup.mass.m == 0.0:
        # zero mass limit means the perturbation decays faster than n^-gamma,
        # so the classical limit applies whatever the nominal regime
        b = np.zeros(j + 2)
        b[0] = 1.0
        return LimitFunction(alpha=a, b=b, regime=regime)
    sigma, rest = Fraction(1), Fraction(0)
    if regime.kind is RegimeKind.CRITICAL:
        # sigma = M/(M + G) = 1/(1 + e^t) and 1 - sigma = 1/(1 + e^-t), each from
        # its own logistic, with t = log G - log M, where G and M need not be doubles
        t = _log_G(a, p.b, j) + math.log(a + 2.0 * j + 1.0) - math.log(setup.mass.m)
        e = math.exp(-abs(t))
        small, large = Fraction(e / (1.0 + e)), Fraction(1.0 / (1.0 + e))
        sigma, rest = (small, large) if t > 0.0 else (large, small)
    # exact rationals: the system is ill-conditioned in j (a double solve is
    # 1e-5 off at alpha = 30, j = 10); the entries above the diagonal are not read
    alpha = Fraction(p.alpha)
    lead = np.array([sigma * (k - j) / (alpha + j + k + 1) + rest
                     for k in range(j + 2)], dtype=object)
    entry = np.zeros((j + 2, j + 2), dtype=object)
    for k in range(j + 2):
        entry[0, k] = Fraction(1)
        for i in range(1, k + 1):
            entry[i, k] = 2 * entry[i - 1, k] / (alpha + k + i)
    b = solve_connection(lead, entry)
    return LimitFunction(alpha=a, b=[float(v) for v in b], regime=regime)


def limit_eval(lf, x):
    """Evaluate L(x) = sum_i b_i 2^i (x/2)^(-alpha) J_{alpha+2i}(x) for x >= 0
    (the value at 0 is its limit, b_0 / Gamma(alpha + 1)).

    ``x`` may be a scalar (the result is a float) or an array; each nonzero
    term costs one array Bessel evaluation over all points.
    """
    xa = np.asarray(x, dtype=np.float64)
    if np.any(xa < 0.0):
        raise ValueError("argument must be nonnegative")
    flat = xa.ravel()
    h = 0.5 * flat
    out = np.zeros(len(flat))
    for i in np.flatnonzero(lf.b).tolist():
        out = out + lf.b[i] * 2.0 ** i * h ** (2 * i) * _bessel_z(lf.alpha + 2.0 * i, flat)
    return float(out[0]) if xa.ndim == 0 else out.reshape(xa.shape)


def order_zero_identity_residual(alpha, beta, M, x):
    """Residual of the closed two-Bessel form of the critical limit function
    at derivative order zero.

    With z_v(x) = (x/2)^(-v) J_v(x) and
    a(M) = -2 M (alpha+1) / (M + 2^(alpha+beta+1) Gamma(alpha+2) Gamma(alpha+1)),
    the order-zero critical limit function equals
    z_alpha(x) + (a(M)/2) z_{alpha+1}(x); this returns the absolute
    difference of the two evaluations, a float for a scalar ``x`` and an
    array for an array ``x``.
    """
    a = float(alpha)
    b = float(beta)
    M = float(M)
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0.0):
        raise ValueError("identity residual is defined for x > 0")
    # classify_regime forms its threshold 2 (a + 2j + 1) with the same float
    # operations, so this gamma is critical exactly
    setup = SobolevSetup(params=JacobiParams(a, b), j=0,
                         mass=MassSequence(kind=MassKind.PLAIN, M=M, gamma=2.0 * (a + 1.0)))
    lf = limit_coeffs(setup)
    lhs = limit_eval(lf, x)
    acoef = -2.0 * M * (a + 1.0) / (M + _G(a, b, 0))
    flat = x.ravel()
    rhs = (_bessel_z(a, flat) + 0.5 * acoef * _bessel_z(a + 1.0, flat)).reshape(x.shape)
    resid = np.abs(lhs - rhs)
    return resid if x.ndim else float(resid)
