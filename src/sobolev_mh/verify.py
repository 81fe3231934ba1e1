"""Golden-table comparison plus the structural property battery.

The finite-degree properties work on stacks, not per-degree loops: each
preset's Sobolev series of degree <= 100 are built once into a zero-padded
coefficient stack.  The orthogonality check reads its rows; the
connection-reconstruct check evaluates rows j+1..60 in one stacked
Clenshaw pass and the connection formula at all those degrees in another.

Pure computation: callers (the CLI, the test suite) decide how to render
or persist the reports.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import golden, kernels
from .asymptotics import limit_coeffs, limit_eval, order_zero_identity_residual
from .errors import ConfigError
from .jacobi import clenshaw_eval, deriv_at_one, norm2
from .presets import SETUPS
from .sobolev import (
    _series_coeffs,
    connection_reconstruct,
    mass,
    q_deriv_at_one,
    sobolev_polynomial,
)
from .special_functions import bessel_j, log_gamma
from .zeros import convergence_table, sobolev_zeros

FAST_DEGREES = (150, 250)
FULL_DEGREES = (150, 250, 500)
MH_SUP_DEGREES = (300, 600)  # the sup error must shrink from the first to the second


@dataclass(frozen=True)
class PropertyReport:
    name: str
    worst: float
    bound: float
    status: str  # pass | fail


@dataclass(frozen=True)
class VerifyResult:
    cells: list
    properties: list

    @property
    def ok(self):
        return (all(c.status != "fail" for c in self.cells)
                and all(p.status == "pass" for p in self.properties))


def _experiment_cells(exp_name, degrees, tolerances, zero_sets):
    setup = SETUPS[exp_name]
    tb = convergence_table(setup, degrees, 4, zero_sets.setdefault(exp_name, {}))
    raw_id, scaled_id = golden.EXPERIMENT_TABLES[exp_name]
    raw_rows = {row.n: row.raw for row in tb.rows}
    scaled_rows = {row.n: row.scaled for row in tb.rows}
    cells = golden.compare_table(golden.TABLES[raw_id], raw_rows, None, tolerances)
    cells += golden.compare_table(golden.TABLES[scaled_id], scaled_rows, tb.limit,
                                  tolerances)
    return cells


def run_golden(only=None, fast=True, tolerances=None, zero_sets=None):
    """Recompute and compare the embedded tables; returns CellReports.

    ``zero_sets`` maps a preset name to a dict from degree to ZeroSet; it
    lends the sets it holds and receives the ones extracted here.
    """
    if only is not None:
        if only not in golden.TABLES:
            raise ConfigError(f"--only expects one of {sorted(golden.TABLES)}, "
                              f"got {only!r}")
        experiments = [golden.TABLES[only].experiment]
    else:
        experiments = sorted(golden.EXPERIMENT_TABLES)
    degrees = FAST_DEGREES if fast else FULL_DEGREES
    zero_sets = {} if zero_sets is None else zero_sets
    cells = []
    for exp in experiments:
        cells.extend(_experiment_cells(exp, degrees, tolerances, zero_sets))
    if only is not None:
        cells = [c for c in cells if c.table == only]
    return cells


# ---------------------------------------------------------------------------
# property battery
# ---------------------------------------------------------------------------

def _series_stack(setup, n_max):
    """Jacobi coefficients of the Sobolev polynomials of degree 0..n_max,
    row n for degree n, zero-padded to n_max + 1 columns."""
    return _series_coeffs(setup, np.arange(n_max + 1))


def _orthogonality_worst(setup, stack):
    n_max = len(stack) - 1
    n = np.arange(1, n_max + 1)
    # <Q_n, P_m> = c_m h_m + M_n Q_n^(j)(1) P_m^(j)(1) for every m < n at once
    h = norm2(np.arange(n_max + 1), setup.params)
    d = deriv_at_one(np.arange(n_max), setup.j, setup.params)
    Mn = np.array([mass(setup.mass, m) for m in n])
    ip = stack[1:, :n_max] * h[:n_max] + (Mn * q_deriv_at_one(setup, n, setup.j))[:, None] * d
    ip = np.where(np.arange(n_max) < n[:, None], np.abs(ip), 0.0)
    return float(np.max(np.max(ip, axis=1) / h[1:]))


def _reconstruct_worst(setup, stack, n_max):
    # degrees j+1..n_max: the rows of the stack in one pass, the connection
    # formula in another
    grid = np.linspace(-1.0, 1.0, 21)
    p = setup.params
    A, B, C = kernels.jacobi_recurrence(n_max + 2, p.a, p.b)
    direct = kernels.clenshaw_batch(stack[setup.j + 1:n_max + 1, :n_max + 1], A, B, C, grid)
    rebuilt = connection_reconstruct(setup, range(setup.j + 1, n_max + 1), grid)
    err = np.max(np.abs(direct - rebuilt), axis=1) / np.max(np.abs(direct), axis=1)
    return float(np.max(err))


def _zero_shape_worst(setup, degrees, zero_sets):
    """Largest violation over: count == n, simplicity, at most one outside."""
    worst = 0.0
    for n in degrees:
        if n not in zero_sets:
            zero_sets[n] = sobolev_zeros(setup, n)
        zs = zero_sets[n]
        if len(zs.zeros) != n:
            return math.inf
        if zs.outside_count > 1:
            return math.inf
        if np.any(zs.zeros <= -1.0):
            return math.inf
        asc = zs.zeros[::-1]
        u = np.sqrt(np.maximum(2.0 * (1.0 - np.minimum(asc, 1.0)), 0.0)) * n
        gap_x = np.min(np.diff(asc))
        if gap_x <= 0.0:
            return math.inf
        # clustered pairs are well separated in the scaled variable
        gap_u = np.min(np.abs(np.diff(u))) if len(u) > 1 else 1.0
        if max(gap_x, gap_u) < 1e-12:
            return math.inf
    return worst


def _mh_sup_errors(setup):
    lf = limit_coeffs(setup)
    xs = np.linspace(0.0, 18.0, 200)
    ref = limit_eval(lf, xs)
    sups = []
    a = setup.params.a
    for n in MH_SUP_DEGREES:
        series = sobolev_polynomial(setup, n)
        args = 1.0 - xs * xs / (2.0 * n * n)
        vals = math.exp(-a * math.log(n)) * clenshaw_eval(series, args)
        sups.append(float(np.max(np.abs(vals - ref))))
    return sups


def run_properties(zero_sets=None):
    """Structural checks that need no table values at all.

    ``zero_sets`` is as for ``run_golden``.
    """
    zero_sets = {} if zero_sets is None else zero_sets
    out = []

    # one series stack per preset serves both finite-degree checks; only
    # one stack is alive at a time
    ortho, rebuilt = [], []
    for s in SETUPS.values():
        stack = _series_stack(s, 100)
        ortho.append(_orthogonality_worst(s, stack))
        rebuilt.append(_reconstruct_worst(s, stack, 60))
    worst = max(ortho)
    out.append(PropertyReport("sobolev-orthogonality(n<=100)", worst, 1e-9,
                              "pass" if worst <= 1e-9 else "fail"))

    worst = max(rebuilt)
    out.append(PropertyReport("connection-reconstruct(n<=60)", worst, 1e-8,
                              "pass" if worst <= 1e-8 else "fail"))

    worst = max(_zero_shape_worst(s, (25, 50, 150, 250), zero_sets.setdefault(name, {}))
                for name, s in SETUPS.items())
    out.append(PropertyReport("zero-count-simplicity(n<=250)", worst, 1e-12,
                              "pass" if worst < math.inf else "fail"))

    xs = np.linspace(0.1, 30.0, 120)
    worst = max(float(np.max(order_zero_identity_residual(a, b, M, xs)))
                for a, b, M in ((0.0, 0.0, 1.0), (0.7, -0.3, 2.3), (-0.5, 0.25, 10.0)))
    out.append(PropertyReport("order-zero-identity", worst, 1e-9,
                              "pass" if worst <= 1e-9 else "fail"))

    worst = 0.0
    xs = np.linspace(0.1, 50.0, 160)
    for nu in (-0.9, -0.25, 0.5, 1.0, 3.0, 6.5, 10.0):
        r = np.abs(bessel_j(nu, xs) - (2.0 * (nu + 1.0) / xs) * bessel_j(nu + 1.0, xs)
                   + bessel_j(nu + 2.0, xs))
        worst = max(worst, float(np.max(r)))
    out.append(PropertyReport("bessel-three-term", worst, 1e-10,
                              "pass" if worst <= 1e-10 else "fail"))

    worst = 0.0
    for x in (0.31, 1.0, 3.1, 7.7, 40.0):
        lhs = log_gamma(2.0 * x)
        rhs = (log_gamma(x) + log_gamma(x + 0.5)
               - (1.0 - 2.0 * x) * math.log(2.0) - 0.5 * math.log(math.pi))
        worst = max(worst, abs(math.expm1(lhs - rhs)))
    out.append(PropertyReport("gamma-duplication", worst, 1e-12,
                              "pass" if worst <= 1e-12 else "fail"))

    worst = -math.inf  # signed: positive means the sup error failed to decrease
    for s in SETUPS.values():
        s300, s600 = _mh_sup_errors(s)
        worst = max(worst, s600 - s300)
    out.append(PropertyReport("mh-sup-error-decreases(300->600)", worst, 0.0,
                              "pass" if worst <= 0.0 else "fail"))
    return out


def run(only=None, fast=True):
    # each (preset, degree) zero set is extracted once: the zero-shape
    # property reuses the sets of the golden tables
    zero_sets = {}
    return VerifyResult(cells=run_golden(only=only, fast=fast, zero_sets=zero_sets),
                        properties=run_properties(zero_sets))
