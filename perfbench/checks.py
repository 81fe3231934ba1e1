"""Output checks for the benchmark's CLI jobs, run outside the timed region.

``check(job, out_dir, returncode, stdout, stderr)`` returns None for a good
job or a one-line reason for a failed one.  A job fails if it exits
non-zero, prints a traceback, or writes output that fails its check:

- ``zeros``: n zeros per degree, strictly decreasing, none <= -1, at most
  one above 1; for n <= 500 also within 1e-12 of the comrade-matrix oracle.
- ``limits`` / ``mh-curve``: the limit-function zeros and the limit column
  agree with the function rebuilt from ``scipy.special.jv``.
- ``verify``: exit code 0 and no ``FAIL`` line.
"""

import csv
import math
import os

import numpy as np
from scipy.special import gammaln, jv

from oracle import comrade_zeros

ORACLE_MAX_DEGREE = 500
ORACLE_TOL = 1e-12
# |program - rebuilt| over the sum of the absolute rebuilt terms plus the
# largest such sum on the curve, which covers points near a zero
LIMIT_REL_TOL = 1e-9
# printed limit zeros are refined to a 1e-12 bracket
LIMIT_ZERO_TOL = 1e-10


def _rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _only_file(out_dir, suffix):
    names = sorted(n for n in os.listdir(out_dir) if n.endswith(suffix))
    if len(names) != 1:
        raise ValueError(f"expected one *{suffix} output, found {names}")
    return os.path.join(out_dir, names[0])


def _setup(job):
    # the program's own parser and series construction are trusted inputs to the
    # oracles; the checks are independent in root finding and Bessel values
    from sobolev_mh.config import parse_config

    with open(job.argv[job.argv.index("--config") + 1]) as f:
        return parse_config(f.read()).setup


def limit_terms(b, alpha, x):
    """Terms b_i 2^i (x/2)^(-alpha) J_{alpha+2i}(x) of the limit function,
    rebuilt from scipy, shape (len(b), len(x)); x = 0 takes the limit."""
    x = np.asarray(x, dtype=np.float64)
    i = np.arange(len(b))[:, None]
    nu = alpha + 2.0 * i
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = b[:, None] * 2.0 ** i * (0.5 * x) ** (-alpha) * jv(nu, x)
    at0 = np.where(i == 0, b[:, None] * np.exp(-gammaln(alpha + 1.0)), 0.0)
    return np.where(x == 0.0, at0, terms)


def _check_zeros(job, out_dir):
    rows = _rows(_only_file(out_dir, "_zeros.csv"))
    for n in job.expect["degrees"]:
        z = np.array([float(r["zero_full"]) for r in rows if int(r["n"]) == n])
        if len(z) != n:
            return f"n={n}: {len(z)} zeros"
        if not np.all(np.diff(z) < 0.0):
            return f"n={n}: zeros not strictly decreasing"
        if np.any(z <= -1.0):
            return f"n={n}: a zero <= -1"
        if np.count_nonzero(z > 1.0) > 1:
            return f"n={n}: more than one zero above 1"
        if n <= ORACLE_MAX_DEGREE:
            from sobolev_mh import sobolev_polynomial

            series = sobolev_polynomial(_setup(job), n)
            oz = comrade_zeros(series.coeffs, job.expect["alpha"], job.expect["beta"])
            err = float(np.max(np.abs(oz - z)))
            if not err <= ORACLE_TOL:
                return f"n={n}: {err:.2e} from the comrade-matrix oracle"
    return None


def _limit_coeffs(job):
    from sobolev_mh import limit_coeffs

    return limit_coeffs(_setup(job)).b


def _check_limits(job, out_dir):
    rows = _rows(_only_file(out_dir, "_limits.csv"))
    by_kind = {}
    for r in rows:
        by_kind.setdefault(r["kind"], []).append(r)
    regime = by_kind.get("regime", [{}])[0].get("value")
    if regime != job.expect["regime"]:
        return f"regime {regime!r}, expected {job.expect['regime']!r}"
    threshold = float(by_kind["threshold"][0]["value_full"])
    if threshold != job.expect["threshold"]:
        return f"threshold {threshold!r}, expected {job.expect['threshold']!r}"
    b = np.array([float(r["value_full"]) for r in by_kind.get("coeff", [])])
    ref = _limit_coeffs(job)
    if len(b) != len(ref) or not np.allclose(b, ref, rtol=1e-15, atol=0.0):
        return "limit coefficients differ from limit_coeffs"
    z = np.array([float(r["value_full"]) for r in by_kind.get("zero", [])])
    count = job.expect["zero_count"]
    if len(z) != count:
        return f"{len(z)} limit zeros, expected {count}"
    if not (z[0] > 0.0 and np.all(np.diff(z) > 0.0)):
        return "limit zeros not positive and increasing"
    alpha = job.expect["alpha"]
    delta = LIMIT_ZERO_TOL * np.maximum(1.0, z)
    left = limit_terms(b, alpha, z - delta).sum(axis=0)
    right = limit_terms(b, alpha, z + delta).sum(axis=0)
    if np.any(np.sign(left) == np.sign(right)):
        k = int(np.flatnonzero(np.sign(left) == np.sign(right))[0])
        return f"limit zero {k + 1} = {z[k]!r} is not a sign change of the rebuilt function"
    # no zero skipped: the rebuilt function changes sign exactly `count`
    # times on (0, z_last], sampled finely away from the printed zeros
    grid = np.arange(1e-3, z[-1], 1e-3)
    grid = grid[np.min(np.abs(grid[:, None] - z[None, :]), axis=1) > 2.0 * delta.max()]
    xs = np.sort(np.concatenate([grid, z - delta, z + delta]))
    s = np.sign(limit_terms(b, alpha, xs).sum(axis=0))
    changes = int(np.count_nonzero(s[:-1] * s[1:] < 0.0))
    if changes != count:
        return f"rebuilt limit function has {changes} sign changes below the last zero"
    return None


def _check_curve(job, out_dir):
    rows = _rows(_only_file(out_dir, "_curve.csv"))
    with open(_only_file(out_dir, "_curve.svg")) as f:
        if not f.read().startswith("<svg"):
            return "curve SVG is not an SVG document"
    xs = np.array([float(r["x"]) for r in rows])
    if len(xs) < 2 or not np.all(np.diff(xs) > 0.0):
        return "curve x column is not increasing"
    limit = np.array([float(r["limit"]) for r in rows])
    terms = limit_terms(_limit_coeffs(job), job.expect["alpha"], xs)
    size = np.abs(terms).sum(axis=0)
    err = np.abs(limit - terms.sum(axis=0)) / (size + size.max())
    if not np.all(err <= LIMIT_REL_TOL):
        k = int(np.argmax(err))
        return f"limit column at x={xs[k]!r} is {err[k]:.1e} from the rebuilt function"
    for n in (k for k in rows[0] if k.startswith("q_")):
        if not all(math.isfinite(float(r[n])) for r in rows):
            return f"column {n} is not finite"
    return None


def _check_verify(stdout):
    bad = [ln for ln in stdout.splitlines() if ln.startswith("FAIL")]
    if bad:
        return f"{len(bad)} FAIL lines, first: {bad[0]}"
    return None


def check(job, out_dir, returncode, stdout, stderr):
    """None if the job succeeded and its output is correct, else why not."""
    if returncode != 0:
        return f"exit code {returncode}"
    if "Traceback" in stderr:
        return "traceback on stderr"
    try:
        if job.job == "zeros":
            return _check_zeros(job, out_dir)
        if job.job == "limits":
            return _check_limits(job, out_dir)
        if job.job == "mh-curve":
            return _check_curve(job, out_dir)
        if job.job == "verify":
            return _check_verify(stdout)
    except (OSError, ValueError, KeyError, IndexError) as e:
        return f"unreadable output: {e}"
    return f"no check for job {job.job!r}"
