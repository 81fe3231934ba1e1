"""Flat key-value experiment configuration with exact rational fields.

Format: two sections, ``[experiment]`` and ``[output]``, one ``key = value``
per line, ``#`` comments.  Rational fields (alpha, beta, gamma, M) accept
``p/q`` strings and decimal literals and are kept exact, so knife-edge
regime comparisons are exact.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError
from .jacobi import JacobiParams
from .sobolev import MassKind, MassSequence, SobolevSetup

JOBS = ("tables", "zeros", "mh-curve", "limits", "verify")

_EXPERIMENT_KEYS = {"id", "job", "alpha", "beta", "j", "gamma", "mass", "M",
                    "degrees", "zero_count", "custom_values", "x_max", "points"}
_OUTPUT_KEYS = {"csv", "svg"}


@dataclass(frozen=True)
class ExperimentConfig:
    id: str
    job: str
    setup: SobolevSetup
    degrees: tuple
    zero_count: int
    x_max: float = 18.0
    points: int = 361
    csv_path: str | None = None
    svg_path: str | None = None

    def __post_init__(self):
        if self.job not in JOBS:
            raise ConfigError(f"unknown job {self.job!r}; expected one of {JOBS}")
        if not self.degrees:
            raise ConfigError("degrees must be nonempty")
        if list(self.degrees) != sorted(self.degrees):
            raise ConfigError("degrees must be sorted ascending")
        if self.degrees[0] < 1:
            raise ConfigError(f"degrees must be >= 1, got {self.degrees[0]}")
        if self.zero_count < 1:
            raise ConfigError("zero_count must be >= 1")
        if self.job == "tables" and self.zero_count > self.degrees[0]:
            raise ConfigError(f"zero_count {self.zero_count} exceeds the smallest "
                              f"degree {self.degrees[0]}")
        if self.points < 2:
            raise ConfigError(f"points must be >= 2, got {self.points}")
        if not (math.isfinite(self.x_max) and self.x_max > 0.0):
            raise ConfigError(f"x_max must be finite and > 0, got {self.x_max}")
        # 1 - x^2/(2n^2) stays in [-1, 1] only up to x = 2n
        if self.job == "mh-curve" and self.x_max > 2.0 * self.degrees[0]:
            raise ConfigError(f"x_max {self.x_max:g} exceeds 2 * min(degrees) = "
                              f"{2 * self.degrees[0]}")


def _parse_fraction(raw, key, lineno):
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"line {lineno}: field '{key}' is not a rational: {raw!r}")


def parse_config(text):
    """Parse configuration text into an ExperimentConfig."""
    section = None
    seen = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in ("experiment", "output"):
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        allowed = _EXPERIMENT_KEYS if section == "experiment" else _OUTPUT_KEYS
        if key not in allowed:
            raise ConfigError(f"line {lineno}: unknown key '{key}' in [{section}]")
        full = f"{section}.{key}"
        if full in seen:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        seen[full] = value
        lines[full] = lineno

    def need(full):
        if full not in seen:
            raise ConfigError(f"missing required field '{full}'")
        return seen[full]

    def lno(full):
        return lines.get(full, 0)

    job = need("experiment.job")
    cfg_id = need("experiment.id")
    alpha = _parse_fraction(need("experiment.alpha"), "alpha", lno("experiment.alpha"))
    beta = _parse_fraction(need("experiment.beta"), "beta", lno("experiment.beta"))
    gamma = _parse_fraction(need("experiment.gamma"), "gamma", lno("experiment.gamma"))
    M = _parse_fraction(seen.get("experiment.M", "0"), "M", lno("experiment.M"))
    try:
        j = int(need("experiment.j"))
    except ValueError:
        raise ConfigError(f"line {lno('experiment.j')}: field 'j' must be an integer")
    kind_raw = need("experiment.mass")
    try:
        kind = MassKind(kind_raw)
    except ValueError:
        choices = ", ".join(k.value for k in MassKind)
        raise ConfigError(f"line {lno('experiment.mass')}: unknown mass family "
                          f"{kind_raw!r}; expected one of: {choices}")
    custom = None
    if kind is MassKind.CUSTOM:
        raw = need("experiment.custom_values")
        custom = {}
        for piece in raw.replace(",", " ").split():
            if ":" not in piece:
                raise ConfigError(f"line {lno('experiment.custom_values')}: "
                                  f"custom_values entries are n:value, got {piece!r}")
            k, _, v = piece.partition(":")
            try:
                custom[int(k)] = float(Fraction(v))
            except ValueError:
                raise ConfigError(f"line {lno('experiment.custom_values')}: "
                                  f"bad custom_values entry {piece!r}")
    degrees_raw = need("experiment.degrees").replace(",", " ").split()
    try:
        degrees = tuple(int(d) for d in degrees_raw)
    except ValueError:
        raise ConfigError(f"line {lno('experiment.degrees')}: degrees must be integers")
    try:
        zero_count = int(seen.get("experiment.zero_count", "4"))
    except ValueError:
        raise ConfigError(f"line {lno('experiment.zero_count')}: zero_count must be "
                          "an integer")
    try:
        x_max = float(seen.get("experiment.x_max", "18"))
        points = int(seen.get("experiment.points", "361"))
    except ValueError:
        raise ConfigError("x_max must be a number and points an integer")

    def path_or_none(full):
        v = seen.get(full, "none")
        return None if v in ("none", "") else v

    try:
        setup = SobolevSetup(params=JacobiParams(alpha, beta), j=j,
                             mass=MassSequence(kind=kind, M=M, gamma=gamma,
                                               custom_values=custom))
    except ValueError as e:
        raise ConfigError(str(e))
    return ExperimentConfig(
        id=cfg_id, job=job, setup=setup, degrees=degrees, zero_count=zero_count,
        x_max=x_max, points=points,
        csv_path=path_or_none("output.csv"), svg_path=path_or_none("output.svg"),
    )

