"""Package exceptions, mapped onto CLI exit codes by the front end."""


class ConfigError(ValueError):
    """Malformed experiment configuration (exit code 2)."""


class NumericError(RuntimeError):
    """A numeric phase failed its own sanity checks (exit code 3)."""

