"""Exception hierarchy shared by all modules.

The CLI maps these onto stable exit codes (see ``cli.EXIT_*``); library users
can catch ``GplnError`` to handle anything raised by this package.
"""

__all__ = [
    "GplnError",
    "InvalidInputError",
    "EmptyDatasetError",
    "ConfigError",
    "ParseError",
    "NumericalError",
    "UndefinedMetricError",
]


class GplnError(Exception):
    """Base class for all errors raised by gplabelnoise."""


class InvalidInputError(GplnError):
    """Non-finite or otherwise malformed numerical input."""


class EmptyDatasetError(GplnError):
    """An operation that requires at least one sample received none."""


class ConfigError(GplnError):
    """Invalid configuration value, unknown key, or conflicting flags."""


class ParseError(GplnError):
    """Malformed dataset file. Carries the offending 1-based line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class NumericalError(GplnError):
    """Factorization failure that survived the jitter escalation policy.

    ``smallest_pivot`` is the smallest eigenvalue of K + diag(sigma), the
    matrix the jitter ladder failed to factor.
    Optimizers let it propagate unchanged; wrappers that add context to the
    message (``joint_optimize``, ``cv_mae``) keep the pivot.
    """

    def __init__(self, message, smallest_pivot=None):
        super().__init__(message)
        self.smallest_pivot = smallest_pivot


class UndefinedMetricError(GplnError):
    """A metric is undefined for the given ground truth (e.g. one-class)."""
