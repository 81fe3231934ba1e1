"""Named experiment presets for the four tabulated parameter sets."""

from fractions import Fraction

from . import golden
from .config import ExperimentConfig
from .errors import ConfigError
from .jacobi import JacobiParams
from .sobolev import MassKind, MassSequence, SobolevSetup

SETUPS = {
    "supercritical": SobolevSetup(
        params=JacobiParams(Fraction(3), Fraction(1)), j=3,
        mass=MassSequence(kind=MassKind.EXP_RATIONAL, M=Fraction(1, 2),
                          gamma=Fraction(25))),
    "subcritical": SobolevSetup(
        params=JacobiParams(Fraction(3), Fraction(-1, 2)), j=3,
        mass=MassSequence(kind=MassKind.LOG_RATIO, M=Fraction(7, 2),
                          gamma=Fraction(4))),
    "critical-small-mass": SobolevSetup(
        params=JacobiParams(Fraction(-9, 10), Fraction(-9, 10)), j=3,
        mass=MassSequence(kind=MassKind.POLY_RATIO, M=Fraction(5),
                          gamma=Fraction(61, 5))),
    "critical-big-mass": SobolevSetup(
        params=JacobiParams(Fraction(-9, 10), Fraction(-9, 10)), j=3,
        mass=MassSequence(kind=MassKind.POLY_RATIO, M=Fraction(10**6),
                          gamma=Fraction(61, 5))),
}

_FIGURES = {
    "figure-supercritical": "supercritical",
    "figure-subcritical": "subcritical",
    "figure-critical-smallM": "critical-small-mass",
    "figure-critical-bigM": "critical-big-mass",
}

TABLE_DEGREES = (150, 250, 500)
FIGURE_DEGREES = (150, 500)


def preset_names():
    return sorted(golden.TABLES) + sorted(_FIGURES) + sorted(SETUPS)


def get_preset(name, job):
    """Resolve a preset name to the ExperimentConfig of ``job``."""
    if name in golden.TABLES:
        exp, degrees = golden.TABLES[name].experiment, TABLE_DEGREES
    elif name in _FIGURES:
        exp, degrees = _FIGURES[name], FIGURE_DEGREES
    elif name in SETUPS:
        exp, degrees = name, TABLE_DEGREES
    else:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    return ExperimentConfig(id=name, job=job, setup=SETUPS[exp], degrees=degrees,
                            zero_count=4)
