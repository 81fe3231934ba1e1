"""Package exceptions, mapped onto CLI exit codes by the front end."""


class ConfigError(ValueError):
    """Malformed experiment configuration (exit code 2)."""


class NumericError(RuntimeError):
    """A numeric phase failed its own sanity checks (exit code 3)."""


class MissingMassError(ConfigError, KeyError):
    """A custom mass sequence has no value at a requested degree (exit code 2).

    Also a KeyError, since the sequence is looked up like a mapping.
    """

    __str__ = ConfigError.__str__  # KeyError's would quote the message
