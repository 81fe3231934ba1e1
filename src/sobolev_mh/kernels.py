"""Hot numeric kernels: Jacobi recurrences, Clenshaw sums and bracket refinement.

One backend, vectorized numpy: each kernel loops in Python over the
recurrence index and in numpy over the evaluation points, so one pass of a
degree-m series over k points costs m numpy operations on length-k arrays.

``refine_brackets`` converges every sign-change bracket together with a
safeguarded Newton method, ``_rtsafe``, which takes any function that
returns values and derivatives on an array; the Bessel zeros and the
limit-function zeros use it too.  Each bracket starts from its secant
point, the zero of the chord through its two end values (the midpoint when
that point is not strictly inside).  A root is done once its Newton step is below
1e-15 relative to max(1, |x|), on an exact zero of the series, or when its
bracket is at most 1e-13 wide.  A step falls back to bisection only when
Newton would leave the bracket or fails to halve the step before the last
one (``rtsafe``, Numerical Recipes, 3rd ed., section 9.4).
"""

import numpy as np


def jacobi_recurrence(m, alpha, beta):
    """Arrays (A, B, C) with P_{i+1} = (A_i x + B_i) P_i - C_i P_{i-1}, i < m.

    The i = 0 entries are the two-term start (C_0 = 0); they stay valid at
    alpha + beta = -1 and alpha + beta = 0 where the generic expressions
    have removable singularities.
    """
    A = np.empty(max(m, 1))
    B = np.empty(max(m, 1))
    C = np.zeros(max(m, 1))
    A[0] = 0.5 * (alpha + beta + 2.0)
    B[0] = 0.5 * (alpha - beta)
    for i in range(1, m):
        s = 2.0 * i + alpha + beta
        den = 2.0 * (i + 1.0) * (i + alpha + beta + 1.0)
        A[i] = (s + 1.0) * (s + 2.0) / den
        B[i] = (alpha * alpha - beta * beta) * (s + 1.0) / (den * s)
        C[i] = 2.0 * (i + alpha) * (i + beta) * (s + 2.0) / (den * s)
    return A, B, C


# ---------------------------------------------------------------------------
# Clenshaw evaluation of a Jacobi-basis series at many points
# ---------------------------------------------------------------------------

def _clenshaw_numpy(c, A, B, C, x):
    # u1, u2 = c[k] + (A[k] x + B[k]) u1 - C[k+1] u2, u1 in place on three
    # rotating buffers: the same operations in the same order, no allocation
    c, A, B, C = c.tolist(), A.tolist(), B.tolist(), C.tolist()
    u1 = np.zeros_like(x)
    u2 = np.zeros_like(x)
    t = np.empty_like(x)
    for k in range(len(c) - 1, -1, -1):
        np.multiply(x, A[k], out=t)
        t += B[k]
        t *= u1
        t += c[k]
        u2 *= C[k + 1]
        t -= u2
        u1, u2, t = t, u1, u2
    return u1


def clenshaw_batch(c, A, B, C, x):
    """Evaluate sum_i c[i] P_i at every point of ``x`` (backward recurrence)."""
    c = np.ascontiguousarray(c, dtype=np.float64)
    x = np.ascontiguousarray(x, dtype=np.float64)
    if len(c) == 1:
        return np.full_like(x, c[0])
    # recurrence arrays must extend one index past the series degree
    if len(A) < len(c) + 1:
        raise ValueError("recurrence arrays must extend past the series degree")
    return _clenshaw_numpy(c, A, B, C, x)


# ---------------------------------------------------------------------------
# Safeguarded Newton/bisection refinement of sign-change brackets
# ---------------------------------------------------------------------------

_XTOL = 1e-13       # bracket width at which a root is done
_STEP_RTOL = 1e-15  # Newton step, relative to max(1, |x|), at which a root is done
_MAX_REFINE = 120


def _rtsafe(fdf, lo, hi, flo, fhi):
    """Converge every bracket [lo, hi] (sign change, f(lo) = flo, f(hi) = fhi)
    together; ``fdf(x)`` returns the arrays (f(x), f'(x)) for an array ``x``."""
    out = np.empty(len(lo))
    idx = np.arange(len(lo))  # roots still being refined; the rest are in out
    pos = flo > 0.0
    # start from the secant point of the bracket, or its midpoint when the
    # secant point is not strictly inside (or not finite)
    with np.errstate(all="ignore"):
        x = lo - flo * (hi - lo) / (fhi - flo)
    x = np.where((x > lo) & (x < hi), x, 0.5 * (lo + hi))
    # lengths of the last two steps; the first steps are measured on the bracket
    last = before = hi - lo
    for _ in range(_MAX_REFINE):
        if len(idx) == 0:
            return out
        f, fp = fdf(x)
        same = (f > 0.0) == pos
        lo = np.where(same, x, lo)
        hi = np.where(same, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / fp
        newton = x - step
        hit = f == 0.0
        small = np.abs(step) <= _STEP_RTOL * np.maximum(1.0, np.abs(x))
        done = hit | small | (hi - lo <= _XTOL)
        if done.any():
            # an exact zero is the answer itself; a converged Newton step is
            # taken once more; a collapsed bracket gives its midpoint
            root = np.where(hit, x, np.where(small, np.clip(newton, lo, hi),
                                             0.5 * (lo + hi)))
            out[idx[done]] = root[done]
            keep = ~done
            idx, x, lo, hi, pos = idx[keep], x[keep], lo[keep], hi[keep], pos[keep]
            last, before = last[keep], before[keep]
            step, newton = step[keep], newton[keep]
        # bisect when Newton leaves the open bracket (or is not finite) or
        # fails to halve the step before the last one
        inside = (newton > lo) & (newton < hi) & (2.0 * np.abs(step) <= before)
        nxt = np.where(inside, newton, 0.5 * (lo + hi))
        last, before = np.abs(nxt - x), last
        x = nxt
    out[idx] = 0.5 * (lo + hi)
    return out


def refine_brackets(cq, Aq, Bq, Cq, cd, Ad, Bd, Cd, lo, hi, flo, fhi):
    """Converge each bracket [lo, hi] (sign change, f(lo) = flo, f(hi) = fhi)
    to a root, starting from its secant point.

    ``cq`` is the series f in the basis of the recurrence (Aq, Bq, Cq) and
    ``cd`` its derivative in the basis of (Ad, Bd, Cd).  Every bracket is
    advanced in the same numpy pass: one Clenshaw sum for f and one for f'
    per pass, over the roots that are not yet done.  Safeguarded Newton: a
    step leaving the bracket, or not halving the step before the last one,
    is replaced by bisection.  A root is done when the Newton step is at most
    1e-15 max(1, |x|) (the root is then x - f/f' clipped to the bracket),
    when f(x) == 0 exactly, or when the bracket is at most 1e-13 wide (the
    root is then its midpoint).
    """
    args = [np.ascontiguousarray(v, dtype=np.float64)
            for v in (cq, Aq, Bq, Cq, cd, Ad, Bd, Cd, lo, hi, flo, fhi)]
    cq, Aq, Bq, Cq, cd, Ad, Bd, Cd, lo, hi, flo, fhi = args
    return _rtsafe(lambda x: (_clenshaw_numpy(cq, Aq, Bq, Cq, x),
                              _clenshaw_numpy(cd, Ad, Bd, Cd, x)), lo, hi, flo, fhi)
