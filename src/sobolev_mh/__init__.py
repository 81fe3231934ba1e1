"""Varying discrete Jacobi-Sobolev orthogonal polynomials.

Construction of the degree-n orthogonal polynomials of an inner product
with a degree-dependent point mass on a derivative at x = 1, their
endpoint (Bessel-type) limit functions in the three mass-size regimes,
and the scaled-zero tables connecting the two.
"""

import os

# Nothing here calls BLAS or LAPACK, yet numpy's OpenBLAS starts a worker
# thread at import that spins for ~130 ms of CPU; a preset value is kept.
# Set before the first import below, which is the first to load numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .asymptotics import (
    LimitFunction,
    Regime,
    RegimeKind,
    classify_regime,
    critical_mass_threshold,
    limit_coeffs,
    limit_eval,
    order_zero_identity_residual,
)
from .errors import ConfigError, NumericError
from .jacobi import (
    JacobiParams,
    JacobiSeries,
    clenshaw_eval,
    deriv_at_one,
    derivative_series,
    jacobi_eval,
    norm2,
    scaled_eval,
)
from .sobolev import (
    MassKind,
    MassSequence,
    SobolevSetup,
    connection_coeffs,
    connection_reconstruct,
    mass,
    q_deriv_at_one,
    sobolev_polynomial,
)
from .special_functions import bessel_j, bessel_j_zero, log_gamma
from .zeros import (
    ConvergenceTable,
    ZeroSet,
    convergence_table,
    limit_zeros,
    sobolev_zeros,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ConvergenceTable", "JacobiParams", "JacobiSeries",
    "LimitFunction", "MassKind", "MassSequence", "NumericError", "Regime",
    "RegimeKind", "SobolevSetup", "ZeroSet", "bessel_j", "bessel_j_zero",
    "classify_regime", "clenshaw_eval", "connection_coeffs",
    "connection_reconstruct", "convergence_table", "critical_mass_threshold",
    "deriv_at_one", "derivative_series", "jacobi_eval", "limit_coeffs",
    "limit_eval", "limit_zeros", "log_gamma", "mass", "norm2",
    "order_zero_identity_residual", "q_deriv_at_one", "scaled_eval",
    "sobolev_polynomial", "sobolev_zeros", "__version__",
]
