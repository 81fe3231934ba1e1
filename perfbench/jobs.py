"""Seeded job lists for the three benchmark workloads.

A job is one ``sobolev-mh`` command line plus what its output check needs
to know.  Inputs are drawn from ``random.Random(seed)`` and written as
exact-rational ``[experiment]`` config files, so the same seed gives
byte-identical configs.  Draws are stratified: every regime, and the same
multiset of derivative orders, zero counts and degrees, appears in every
job list, so two seeds differ in parameter values but hardly in the kind
or amount of work.  No input is ever re-drawn or filtered because it fails.
"""

import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("zeros-high-degree", "verify-battery", "limit-functions")

# degrees of one zeros-high-degree job list; three n = 500 jobs keep the
# median job inside one cluster whatever the seed
ZERO_DEGREES = (500, 2000, 500, 5000, 500)
# limit-functions setups: (regime, mass side, j, zero_count, alpha stratum).
# The work of a limits job grows with the Bessel terms (j + 2, or 1 when
# supercritical), the zero count and alpha, so each slot fixes its stratum
# and the seed draws the values inside it.
LIMIT_SLOTS = (
    ("supercritical", None, 1, 3, 0), ("subcritical", None, 2, 4, 3),
    ("critical", "below", 3, 5, 6), ("critical", "above", 4, 6, 1),
    ("supercritical", None, 4, 5, 4), ("subcritical", None, 3, 6, 7),
    ("critical", "below", 2, 3, 2), ("critical", "above", 1, 4, 5),
)
CURVE_DEGREES = (150, 500)


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``argv`` excludes the program and ``--out``."""

    id: str
    job: str
    argv: tuple
    expect: dict = field(default_factory=dict)


def _strata(rng, lo, hi, k, den, shuffle=True):
    """One exact rational with denominator ``den`` from each of k equal
    strata of [lo, hi], in random order unless ``shuffle`` is false."""
    width = (hi - lo) / k
    vals = []
    for s in range(k):
        a = math.ceil((lo + s * width) * den)
        b = math.floor((lo + (s + 1) * width) * den) - (s + 1 < k)
        vals.append(Fraction(rng.randint(a, b), den))
    if shuffle:
        rng.shuffle(vals)
    return vals


def _mass_limit(rng):
    """Log-uniform mass limit M in [1, 1e6], as a rational."""
    return Fraction(math.floor(10.0 ** rng.uniform(0.0, 6.0) * 100), 100)


def critical_threshold(alpha, beta, j):
    """Critical mass level 2^(a+b+2j+1) (a+j+1) (a+2j+1) Gamma(a+j+1)^2 / j,
    computed here so input generation does not depend on the program."""
    a = float(alpha)
    b = float(beta)
    return (math.exp((a + b + 2 * j + 1) * math.log(2.0) + 2.0 * math.lgamma(a + j + 1.0))
            * (a + j + 1.0) * (a + 2 * j + 1.0) / j)


def _gamma_for(rng, regime, alpha, j):
    threshold = 2 * (alpha + 2 * j + 1)
    if regime == "subcritical":
        return threshold * Fraction(rng.randint(10, 90), 100)
    if regime == "critical":
        return threshold
    return threshold + Fraction(rng.randint(1, 100), 10)


def config_text(cfg_id, job, alpha, beta, j, gamma, mass, M, degrees, zero_count):
    return "\n".join([
        "[experiment]",
        f"id = {cfg_id}",
        f"job = {job}",
        f"alpha = {alpha}",
        f"beta = {beta}",
        f"j = {j}",
        f"gamma = {gamma}",
        f"mass = {mass}",
        f"M = {M}",
        f"degrees = {' '.join(str(d) for d in degrees)}",
        f"zero_count = {zero_count}",
        "",
    ])


def _zeros_jobs(rng, cfg_dir):
    k = len(ZERO_DEGREES)
    alphas = _strata(rng, -0.9, 10.0, k, 10)
    betas = _strata(rng, -0.9, 5.0, k, 10)
    js = [rng.choice(b) for b in ((0, 1), (2,), (3,), (4,), (5, 6))]
    rng.shuffle(js)
    regimes = ["subcritical", "critical", "supercritical", "subcritical", "supercritical"]
    rng.shuffle(regimes)
    jobs = []
    for i, n in enumerate(ZERO_DEGREES):
        alpha, beta, j = alphas[i], betas[i], js[i]
        gamma = _gamma_for(rng, regimes[i], alpha, j)
        mass = ("plain", "poly-ratio")[i % 2]
        M = _mass_limit(rng)
        cfg_id = f"z{i}-n{n}"
        path = os.path.join(cfg_dir, f"{cfg_id}.cfg")
        with open(path, "w") as f:
            f.write(config_text(cfg_id, "zeros", alpha, beta, j, gamma, mass, M,
                                (n,), 4))
        jobs.append(Job(id=cfg_id, job="zeros",
                        argv=("zeros", "--config", path, "--full-precision"),
                        expect={"degrees": (n,), "alpha": float(alpha),
                                "beta": float(beta)}))
    return jobs


def _limit_jobs(rng, cfg_dir):
    k = len(LIMIT_SLOTS)
    alphas = _strata(rng, -0.9, 6.0, k, 10, shuffle=False)
    betas = _strata(rng, -0.9, 5.0, k, 10)
    jobs = []
    for i, (regime, side, j, count, stratum) in enumerate(LIMIT_SLOTS):
        alpha, beta = alphas[stratum], betas[i]
        gamma = _gamma_for(rng, regime, alpha, j)
        if side is None:
            M = _mass_limit(rng)
        else:
            # a rational multiple of the threshold, well clear of it
            factor = (Fraction(rng.randint(10, 50), 100) if side == "below"
                      else Fraction(rng.randint(200, 1000), 100))
            V = Fraction(critical_threshold(alpha, beta, j)).limit_denominator(10 ** 6)
            M = V * factor
        expect = {"regime": regime, "alpha": float(alpha),
                  "zero_count": count, "threshold": float(2 * (alpha + 2 * j + 1))}
        for job in ("limits", "mh-curve"):
            cfg_id = f"l{i}-{job}"
            path = os.path.join(cfg_dir, f"{cfg_id}.cfg")
            with open(path, "w") as f:
                f.write(config_text(cfg_id, job, alpha, beta, j, gamma, "plain", M,
                                    CURVE_DEGREES, count))
            jobs.append(Job(id=cfg_id, job=job,
                            argv=(job, "--config", path, "--full-precision"),
                            expect=expect))
    return jobs


def build(workload, seed, cfg_dir):
    """Write the workload's config files into ``cfg_dir``; return its jobs.

    ``verify-battery`` runs the fixed reference battery: the seed has no
    effect on it.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    os.makedirs(cfg_dir, exist_ok=True)
    rng = random.Random(seed)
    if workload == "zeros-high-degree":
        return _zeros_jobs(rng, cfg_dir)
    if workload == "limit-functions":
        return _limit_jobs(rng, cfg_dir)
    return [Job(id="verify", job="verify", argv=("verify",))]
