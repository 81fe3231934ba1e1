"""Flat key-value experiment configuration with exact rational fields.

Format: the two sections of ``_FIELDS`` and their keys, one ``key = value``
per line, ``#`` comments.  Rational fields (alpha, beta, gamma, M) accept
``p/q`` strings and decimal literals within the double range and are kept
exact, so knife-edge regime comparisons are exact.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError
from .jacobi import JacobiParams
from .sobolev import MassKind, MassSequence, SobolevSetup

JOBS = ("tables", "zeros", "mh-curve", "limits", "verify")


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


def _job(raw):
    if raw not in JOBS:
        raise ValueError(raw)
    return raw


def _rational(raw):
    # kept exact, but it must have a double: float() raises OverflowError
    value = Fraction(raw)
    float(value)
    return value


def _integers(raw):
    return tuple(int(d) for d in raw.replace(",", " ").split())


def _custom_values(raw):
    # a piece without exactly one ':' fails to unpack with a ValueError
    pairs = [piece.split(":") for piece in raw.replace(",", " ").split()]
    return {int(n): float(Fraction(v)) for n, v in pairs}


def _path(raw):
    return None if raw in ("none", "") else raw


_REQUIRED = object()
_RATIONAL = "a rational in the double range"
# section -> key -> (parser, what a value must be, default or _REQUIRED); a
# parser signals a bad value by ValueError or ArithmeticError
_FIELDS = {
    "experiment": {
        "id": (str, "text", _REQUIRED),
        "job": (_job, "one of " + ", ".join(JOBS), _REQUIRED),
        "alpha": (_rational, _RATIONAL, _REQUIRED),
        "beta": (_rational, _RATIONAL, _REQUIRED),
        "j": (int, "an integer", _REQUIRED),
        "gamma": (_rational, _RATIONAL, _REQUIRED),
        "mass": (MassKind, "one of " + ", ".join(k.value for k in MassKind), _REQUIRED),
        "M": (_rational, _RATIONAL, Fraction(0)),
        "custom_values": (_custom_values, "a list of n:value pairs", None),
        "degrees": (_integers, "a list of integers", _REQUIRED),
        "zero_count": (int, "an integer", 4),
        "x_max": (float, "a number", 18.0),
        "points": (int, "an integer", 361),
    },
    "output": {
        "csv": (_path, "a path", None),
        "svg": (_path, "a path", None),
    },
}


def parse_config(text, job=None):
    """Parse configuration text into an ExperimentConfig for ``job``, by
    default the file's ``job`` key (which is parsed either way)."""
    section = None
    v = {}  # key -> parsed value; the keys of the two sections are distinct
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _FIELDS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _FIELDS[section]:
            raise ConfigError(f"line {lineno}: unknown key '{key}' in [{section}]")
        if key in v:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        parse, what, _ = _FIELDS[section][key]
        try:
            v[key] = parse(value)
        except (ValueError, ArithmeticError):
            raise ConfigError(f"line {lineno}: field '{key}' is not {what}: {value!r}")
    for section, fields in _FIELDS.items():
        for key, (_, _, default) in fields.items():
            if v.setdefault(key, default) is _REQUIRED:
                raise ConfigError(f"missing required field '{section}.{key}'")
    # the table is validated for every family but belongs only to a custom one
    custom = v["custom_values"] if v["mass"] is MassKind.CUSTOM else None
    try:
        setup = SobolevSetup(params=JacobiParams(v["alpha"], v["beta"]), j=v["j"],
                             mass=MassSequence(kind=v["mass"], M=v["M"], gamma=v["gamma"],
                                               custom_values=custom))
    except ValueError as e:
        raise ConfigError(str(e))
    return ExperimentConfig(id=v["id"], job=job or v["job"], setup=setup, degrees=v["degrees"],
                            zero_count=v["zero_count"], x_max=v["x_max"], points=v["points"],
                            csv_path=v["csv"], svg_path=v["svg"])
