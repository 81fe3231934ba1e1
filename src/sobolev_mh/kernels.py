"""Hot numeric kernels: Jacobi recurrences, Clenshaw sums and the zero scan.

One backend, vectorized numpy: each kernel loops in Python over the
recurrence index and in numpy over the evaluation points, so one pass of a
degree-m series over k points costs m numpy operations on length-k arrays.
The Jacobi layer is the one caller of ``jacobi_recurrence`` and
``clenshaw_batch``: a ``JacobiSeries`` forms its recurrence once and
``clenshaw_eval`` hands it here.  ``clenshaw_batch`` also takes a stack of
series, one per row of a coefficient array, all in the basis of its one
recurrence: the same m steps then act on (rows, k) arrays, and each row of
the result is bit for bit what a 1-d call on that row gives.  A 1-d series
on at most 16 points (the last few roots of a refinement) steps over
Python floats instead, point by point, with the same operations in the
same order, so bit for bit the numpy result: a numpy step costs ~6 ufunc
calls whatever the point count, a float step ~0.2 us per point, and the
two cross near 25-30 points.

``grid_roots`` is the one sign-change scan: the polynomial, limit-function
and Bessel zeros all come from one pass of it over a grid.  It compares
``np.sign`` of neighbouring values (their product may underflow) and counts
a grid point where f is exactly 0 only between values of opposite sign.
``refine_brackets`` converges all its brackets together with a safeguarded
secant method on any function that returns values on an array.  No
derivative is evaluated: a secant step costs one pass of the function and
converges with order 1.618, where a Newton step costs two for order 2, that
is sqrt(2) per pass (Ostrowski's efficiency index; Brent, *Algorithms for
Minimization without Derivatives*, 1973).  Where the four grid points
around a bracket are equally spaced in theta = arccos x, the iteration
starts from the zero of the damped sinusoid through their values
(``sinusoid_starts``): away from the ends a Jacobi-type polynomial is, to
O(1/n), a sinusoid in theta over its Darboux envelope (Szego, Thm 8.21.8),
whose local growth Prony's fit follows; the sinusoid's slope drives the
first step.  Elsewhere, and where the grid has one sign change only (a
degree-1 polynomial), a bracket starts from its secant point (its midpoint
when that point is not strictly inside).  A root is done once its secant
step is below 1e-15 relative to max(1, |x|), never on a model step alone,
on an exact zero of the function, or when its bracket is at most that
wide.  A step falls back to bisection only when the secant step would leave
the bracket or fails to halve the step before the last one (the safeguard
of ``rtsafe``, Numerical Recipes, 3rd ed., section 9.4).
"""

import numpy as np

from .errors import NumericError


def jacobi_recurrence(m, alpha, beta):
    """Arrays (A, B, C) with P_{i+1} = (A_i x + B_i) P_i - C_i P_{i-1}, i < m,
    for the scalar exponents ``alpha`` and ``beta``.

    The i = 0 entries are the two-term start (C_0 = 0); they stay valid at
    alpha + beta = -1 and alpha + beta = 0 where the generic expressions
    have removable singularities.  Coefficients beyond the double range
    (alpha or beta near 1e300) raise ``NumericError``.
    """
    alpha, beta = float(alpha), float(beta)
    i = np.arange(1.0, m)
    A, B, C = np.zeros((3, max(m, 1)))
    with np.errstate(all="ignore"):
        s = 2.0 * i + alpha + beta
        den = 2.0 * (i + 1.0) * (i + alpha + beta + 1.0)
        A[0] = 0.5 * (alpha + beta + 2.0)
        B[0] = 0.5 * (alpha - beta)
        A[1:] = (s + 1.0) * (s + 2.0) / den
        B[1:] = (alpha * alpha - beta * beta) * (s + 1.0) / (den * s)
        C[1:] = 2.0 * (i + alpha) * (i + beta) * (s + 2.0) / (den * s)
    if not (np.isfinite(A).all() and np.isfinite(B).all() and np.isfinite(C).all()):
        raise NumericError(f"the Jacobi recurrence at alpha = {alpha:g}, "
                           f"beta = {beta:g} is not finite in double precision")
    return A, B, C


# ---------------------------------------------------------------------------
# Clenshaw evaluation of a Jacobi-basis series at many points
# ---------------------------------------------------------------------------

def clenshaw_batch(c, A, B, C, x):
    """Evaluate sum_i c[i] P_i at every point of ``x`` (backward recurrence)
    with the one recurrence (A, B, C) of ``jacobi_recurrence``.

    ``c`` may also be a stack of series of shape rows + (K,), all in that
    basis: the result has shape rows + x.shape, and each row is bit for bit
    the 1-d evaluation of its series.  A series of lower degree is a row
    padded with zeros.
    """
    c = np.ascontiguousarray(c, dtype=np.float64)
    x = np.ascontiguousarray(x, dtype=np.float64)
    # recurrence arrays must extend one index past the series degree
    if np.ndim(A) != 1 or len(A) < c.shape[-1] + 1:
        raise ValueError("the recurrence must be 1-d and extend past the series degree")
    # u1, u2 = c[k] + (A[k] x + B[k]) u1 - C[k+1] u2, u1 for k = K-1 .. 0.
    # On at most 16 points a 1-d series runs it over Python floats, point by
    # point: t = x A[k]; t += B[k]; t *= u1; t += c[k]; t -= C[k+1] u2, the
    # operations of the numpy loop below in its order, so the same bits.
    if c.ndim == 1 and x.size <= 16:
        K = len(c)
        steps = (c[::-1].tolist(), A[K - 1::-1].tolist(), B[K - 1::-1].tolist(),
                 C[K:0:-1].tolist())
        out = []
        for xv in x.ravel().tolist():
            u1 = u2 = 0.0
            for ck, a, b, cn in zip(*steps):
                u1, u2 = (xv * a + b) * u1 + ck - cn * u2, u1
            out.append(u1)
        return np.array(out).reshape(x.shape)
    # Otherwise in place on three rotating buffers, no allocation, with the
    # recurrence as Python floats; a stack steps with rows + (1, ...) slices
    # of its coefficients that broadcast against x.
    rows = c.shape[:-1]
    A, B, C = A.tolist(), B.tolist(), C.tolist()
    c = c.tolist() if c.ndim == 1 else list(
        np.moveaxis(c, -1, 0).reshape(c.shape[-1:] + rows + (1,) * x.ndim))
    u1 = np.zeros(rows + x.shape)
    u2 = np.zeros_like(u1)
    t = np.empty_like(u1)
    for k in range(len(c) - 1, -1, -1):
        np.multiply(x, A[k], out=t)
        t += B[k]
        t *= u1
        t += c[k]
        u2 *= C[k + 1]
        t -= u2
        u1, u2, t = t, u1, u2
    return u1


# ---------------------------------------------------------------------------
# Safeguarded secant/bisection refinement of sign-change brackets
# ---------------------------------------------------------------------------

_STEP_RTOL = 1e-15  # secant step or bracket width, relative to max(1, |x|),
                    # at which a root is done
_MAX_REFINE = 120


def refine_brackets(f, lo, hi, flo, fhi, start=None, slope=None):
    """Converge each bracket [lo, hi] (sign change, f(lo) = flo, f(hi) = fhi)
    to a root, starting from its secant point, or from ``start`` where that
    is given and finite, with the model's f' there, ``slope``, for its first
    step.

    ``f(x)`` returns the array of values at an array ``x``; every bracket is
    advanced in the same call, over the roots that are not yet done.
    Safeguarded secant: each step runs through the last two iterates (at
    first the bracket end with the smaller |f|, or the model slope), and a
    step leaving the bracket, or not halving the step before the last one,
    is replaced by bisection.  A root is done when the secant step is at
    most 1e-15 max(1, |x|) (the root is then x minus that step, clipped to
    the bracket), when f(x) == 0 exactly, or when the bracket is at most
    that wide (the root is then its secant point when that lies inside, else
    its midpoint).  A model step never ends a root by itself.
    """
    out = np.empty(len(lo))
    idx = np.arange(len(lo))  # roots still being refined; the rest are in out
    pos = flo > 0.0
    # start from the secant point of the bracket, or its midpoint when the
    # secant point is not strictly inside (or not finite)
    with np.errstate(all="ignore"):
        x = lo - flo * (hi - lo) / (fhi - flo)
    x = np.where((x > lo) & (x < hi), x, 0.5 * (lo + hi))
    # the previous iterate of the first step: the end with the smaller |f|
    near = np.abs(flo) < np.abs(fhi)
    xp, fp = np.where(near, lo, hi), np.where(near, flo, fhi)
    model = np.zeros(len(lo), dtype=bool) if start is None else np.isfinite(start)
    if model.any():
        x = np.where(model, start, x)
    # lengths of the last two steps; the first steps are measured on the bracket
    last = before = hi - lo
    for _ in range(_MAX_REFINE):
        if len(idx) == 0:
            return out
        fx = f(x)
        same = (fx > 0.0) == pos
        lo = np.where(same, x, lo)
        hi = np.where(same, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = fx * (x - xp) / (fx - fp)
            if model.any():
                # a model step spans at least half the tolerance, so that
                # the secant after it runs over a baseline above rounding
                floor = 0.5 * _STEP_RTOL * np.maximum(1.0, np.abs(x))
                mstep = fx / slope
                mstep = np.where(np.abs(mstep) < floor, np.copysign(floor, mstep), mstep)
                step = np.where(model, mstep, step)
        secant = x - step
        hit = fx == 0.0
        tol = _STEP_RTOL * np.maximum(1.0, np.abs(x))
        small = ~model & (np.abs(step) <= tol)
        inner = ~model & (secant > lo) & (secant < hi)
        done = hit | small | (hi - lo <= tol)
        if done.any():
            # an exact zero is the answer itself; a converged secant step is
            # taken once more; a collapsed bracket gives its secant point, or
            # its midpoint when that point is outside or from the model
            root = np.where(hit, x, np.where(small, np.clip(secant, lo, hi),
                                             np.where(inner, secant, 0.5 * (lo + hi))))
            out[idx[done]] = root[done]
            keep = ~done
            idx, x, fx, lo, hi = idx[keep], x[keep], fx[keep], lo[keep], hi[keep]
            pos, last, before = pos[keep], last[keep], before[keep]
            step, secant, model = step[keep], secant[keep], model[keep]
        # bisect when the secant step leaves the open bracket (or is not
        # finite) or fails to halve the step before the last one
        inside = (secant > lo) & (secant < hi) & (2.0 * np.abs(step) <= before)
        nxt = np.where(inside, secant, 0.5 * (lo + hi))
        last, before = np.abs(nxt - x), last
        xp, fp, x = x, fx, nxt
        model = np.zeros(len(idx), dtype=bool)
    out[idx] = 0.5 * (lo + hi)
    return out


def sinusoid_starts(grid, vals, idx):
    """Start and f' for the bracket [grid[i], grid[i+1]] of each i in ``idx``
    from the damped sinusoid through the values on grid[i-1 .. i+2] where
    these four points are equally spaced in theta = arccos x (to 1e-9
    relative); NaN elsewhere, where the fit is not a damped sinusoid, or
    where its zero is not strictly inside.

    A damped sinusoid r^t cos(d t + c) sampled at equal steps satisfies
    g[k+1] = p g[k] + q g[k-1] with p = 2 r cos d and q = -r^2 (Prony's
    method); the four values fix p and q.  Through g[i] and g[i+1] it is
    r^s (g[i] sin(d(1 - s)) + g[i+1]/r sin(d s)) / sin d, s from 0 to 1
    across the bracket in theta; the start is its zero, f' its slope there.
    """
    # padded: the end brackets have no outer neighbours
    g = np.concatenate(([np.nan], vals, [np.nan]))
    x = np.concatenate(([np.nan], grid, [np.nan]))
    i = idx + 1
    with np.errstate(all="ignore"):
        tm, t0, t1, t2 = (np.arccos(x[i + k]) for k in (-1, 0, 1, 2))
        h = t1 - t0
        even = (np.abs(t0 - tm - h) <= 1e-9 * np.abs(h)) & (np.abs(t2 - t1 - h) <= 1e-9 * np.abs(h))
        scale = np.maximum(np.abs(g[i]), np.abs(g[i + 1]))
        gm, g0, g1, g2 = (g[i + k] / scale for k in (-1, 0, 1, 2))
        det = g0 * g0 - g1 * gm
        r = np.sqrt((g1 * g1 - g0 * g2) / det)
        c = (g1 * g0 - g2 * gm) / (2.0 * r * det)
        d = np.arccos(np.where(np.abs(c) < 1.0, c, np.nan))
        # the zero: tan(d s) = |g0| sin d / (|g0| cos d + |g1|/r), s in (0, 1)
        a0, a1 = np.abs(g0), np.abs(g1) / r
        s = np.arctan2(a0 * np.sin(d), a0 * np.cos(d) + a1) / d
        ts = t0 + s * h
        start = np.cos(ts)
        dg = scale * r ** s * d * (g1 / r * np.cos(d * s) - g0 * np.cos(d * (1.0 - s))) / np.sin(d)
        slope = dg / (-np.sin(ts) * h)
        ok = (even & (start > grid[idx]) & (start < grid[idx + 1])
              & (slope * (vals[idx + 1] - vals[idx]) > 0.0))
    return np.where(ok, start, np.nan), np.where(ok, slope, np.nan)


def grid_roots(f, grid, vals, count=None):
    """The first ``count`` zeros (all when None), ascending, of f with the
    values ``vals`` on the ascending ``grid``: its refined sign changes and
    the grid points where f is 0 between values of opposite sign.  A
    bracket starts from ``sinusoid_starts`` where that gives a start, and
    from its secant point elsewhere and when it is the only one: a lone
    sign change is no oscillation, and a secant step lands on a linear root."""
    sgn = np.sign(vals)
    idx = np.flatnonzero(sgn[:-1] * sgn[1:] < 0.0)[:count]
    exact = np.flatnonzero((sgn[1:-1] == 0.0) & (sgn[:-2] * sgn[2:] < 0.0)) + 1
    start, slope = sinusoid_starts(grid, vals, idx) if len(idx) > 1 else (None, None)
    roots = refine_brackets(f, grid[idx], grid[idx + 1], vals[idx], vals[idx + 1],
                            start, slope)
    return np.sort(np.concatenate([roots, grid[exact]]))[:count]


def _scan_zeros(f, step, top, count):
    """The first ``count`` positive zeros of f (which acts on arrays) from
    one ``grid_roots`` pass over the grid 1e-3 + k step below ``top``; a grid
    of over 1e5 points is refused."""
    if (top - 1e-3) / step > 1e5:
        raise NumericError(f"the zero scan below {top:g} needs more than 100000 grid points")
    xs = np.arange(1e-3, top, step)
    roots = grid_roots(f, xs, f(xs), count)
    if len(roots) < count:
        raise NumericError(f"found only {len(roots)} of {count} zeros below {top:g}")
    return roots
