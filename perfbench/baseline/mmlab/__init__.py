"""Monte Carlo verification lab for matrix martingale norm inequalities."""

__version__ = "0.1.0"

from .errors import (
    BatchError,
    ConfigError,
    InputDomainError,
    MmlabError,
    NumericError,
    PathBlowupError,
    SpecValidationError,
)

__all__ = [
    "BatchError",
    "ConfigError",
    "InputDomainError",
    "MmlabError",
    "NumericError",
    "PathBlowupError",
    "SpecValidationError",
    "__version__",
]
