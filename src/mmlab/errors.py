"""Exception hierarchy shared by all mmlab modules."""


class MmlabError(Exception):
    """Base class for every error raised by this package."""


class InputDomainError(MmlabError, ValueError):
    """An argument is outside the domain an operation is defined on.

    ``field`` names the offending field of a validated record when
    known: an ``ExperimentConfig`` field, or ``checks[i]`` for its i-th
    check request.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class SpecValidationError(InputDomainError):
    """An integrand specification violates its structural constraints."""


class NumericError(MmlabError, ArithmeticError):
    """A numerical routine failed (non-convergence, overflow)."""


class PathBlowupError(NumericError):
    """A simulated path left the representable range."""


class BatchError(MmlabError):
    """A batch run violated a global constraint (e.g. exclusion rate)."""


class ConfigError(MmlabError):
    """A configuration file or override is invalid.

    ``key`` and ``line`` locate the offending entry when known;
    ``reason`` is the message without them.
    """

    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        where = ""
        if key is not None:
            where += f" (key {key!r}"
            where += f", line {line})" if line is not None else ")"
        elif line is not None:
            where += f" (line {line})"
        super().__init__(message + where)
        self.reason = message
        self.key = key
        self.line = line
