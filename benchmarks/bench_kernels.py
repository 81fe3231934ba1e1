#!/usr/bin/env python3
"""Time the hot numpy kernels on the zero-extraction inner loop.

Workload: a degree-500 series evaluated by Clenshaw over a fixed grid of
about 5k points, and safeguarded refinement of every sign-change bracket of
the grid ``sobolev_zeros`` uses.
Besides the best-of-5 times it prints the Clenshaw passes of the refine
(calls of the Clenshaw kernel, one for the value and one for the
derivative per step) and how many of them one root takes part in on
average.  A second line times the limit layer of the
same preset: one array Bessel evaluation of order alpha over the grid that
``limit_zeros`` scans for six zeros, and ``limit_zeros(count=6)`` itself.
A third line times the preset's whole connection-reconstruct check of
``verify`` (degrees j + 1 .. 60 on 21 points, series builds included): one
series stack with one stacked Clenshaw pass for the series and one for the
connection formula, against a direct and a connection pass per degree.
Nothing is cached between its 20 repeats, so the best of them times the
closed forms as computed (figures recorded while the closed forms sat
behind lru_caches are warm-cache numbers).  A fourth line times the series
build ``sobolev_polynomial`` at degree 5000: the log-space tables of
log d_i(j) and log h_i, the kernel sum and the coefficients in one pass.

    PYTHONPATH=src python benchmarks/bench_kernels.py
"""

import time

import numpy as np

from sobolev_mh import kernels
from sobolev_mh.asymptotics import limit_coeffs
from sobolev_mh.jacobi import clenshaw_eval, derivative_series
from sobolev_mh.presets import SETUPS
from sobolev_mh.sobolev import connection_reconstruct, sobolev_polynomial
from sobolev_mh.special_functions import _mcmahon_guess, bessel_j
from sobolev_mh.verify import _reconstruct_worst, _series_stack
from sobolev_mh.zeros import _bracket_grid, _brackets, limit_zeros


def _timeit(fn, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _count_clenshaw_passes(fn):
    """Run ``fn`` once; return its Clenshaw kernel calls and the points
    they evaluated in total."""
    inner = kernels._clenshaw_numpy
    calls = points = 0

    def counted(c, A, B, C, x):
        nonlocal calls, points
        calls += 1
        points += len(x)
        return inner(c, A, B, C, x)

    kernels._clenshaw_numpy = counted
    try:
        fn()
    finally:
        kernels._clenshaw_numpy = inner
    return calls, points


def main():
    setup = SETUPS["critical-small-mass"]
    series = sobolev_polynomial(setup, 500)
    c = series.coeffs
    A, B, C = kernels.jacobi_recurrence(len(c) + 1, series.params.a, series.params.b)
    d = derivative_series(series)
    Ad, Bd, Cd = kernels.jacobi_recurrence(len(d.coeffs) + 1, d.params.a, d.params.b)
    grid = np.unique(np.concatenate([
        np.cos(np.linspace(0.0, np.pi, 5010)),
        1.0 - np.arange(0.2, 300.0, 0.2) ** 2 / (2.0 * 500.0 ** 2),
    ]))

    t_clen, _ = _timeit(lambda: kernels.clenshaw_batch(c, A, B, C, grid))
    lo, hi, flo, fhi, _ = _brackets(c, A, B, C, _bracket_grid(setup, 500))

    def refine():
        return kernels.refine_brackets(c, A, B, C, d.coeffs, Ad, Bd, Cd, lo, hi, flo, fhi)

    t_ref, roots = _timeit(refine)
    passes, points = _count_clenshaw_passes(refine)

    print(f"{'clenshaw(5k pts)':>18s} {'refine':>12s} "
          f"{'roots':>6s} {'passes':>7s} {'passes/root':>12s}")
    print(f"{t_clen * 1e3:15.2f} ms {t_ref * 1e3:9.2f} ms "
          f"{len(roots):6d} {passes:7d} {points / len(roots):12.1f}")

    lf = limit_coeffs(setup)
    # the scan grid of limit_zeros(lf, 6)
    xs = np.arange(1e-3, _mcmahon_guess(lf.alpha, 6 + len(lf.b)) + 5.0, 0.02)
    t_bes, _ = _timeit(lambda: bessel_j(lf.alpha, xs))
    t_lz, _ = _timeit(lambda: limit_zeros(lf, 6))
    print(f"{f'bessel_j({len(xs)} pts)':>18s} {'limit_zeros(6)':>17s}")
    print(f"{t_bes * 1e3:15.2f} ms {t_lz * 1e3:14.2f} ms")

    n_max = 60
    x21 = np.linspace(-1.0, 1.0, 21)

    def stacked():
        return _reconstruct_worst(setup, _series_stack(setup, n_max), n_max)

    def per_degree():
        worst = 0.0
        for n in range(setup.j + 1, n_max + 1):
            direct = clenshaw_eval(sobolev_polynomial(setup, n), x21)
            rebuilt = connection_reconstruct(setup, n, x21)
            scale = np.max(np.abs(direct))
            worst = max(worst, float(np.max(np.abs(direct - rebuilt))) / scale)
        return worst

    t_stack, _ = _timeit(stacked, repeat=20)
    t_deg, _ = _timeit(per_degree, repeat=20)
    print(f"{f'reconstruct(n<={n_max})':>18s} {'stacked':>10s} {'per-degree':>11s}")
    print(f"{'':18s} {t_stack * 1e3:7.2f} ms {t_deg * 1e3:8.2f} ms")

    t_build, _ = _timeit(lambda: sobolev_polynomial(setup, 5000), repeat=20)
    print(f"{'series(n=5000)':>18s}")
    print(f"{t_build * 1e3:15.2f} ms")


if __name__ == "__main__":
    main()
