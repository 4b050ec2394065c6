"""Error types, and the integer check, shared across the library."""

import numpy as np


class MirrorVIError(Exception):
    """Base class for all library errors."""


class InvalidInput(MirrorVIError, ValueError):
    """An argument violates a documented precondition."""


class EvaluationError(MirrorVIError, ArithmeticError):
    """An operator or demand evaluation produced non-finite values."""


class Unsupported(MirrorVIError, NotImplementedError):
    """The request is outside the supported problem sizes."""


class InsufficientData(MirrorVIError, ValueError):
    """A trace is too short for the requested statistic."""


class DegenerateSolution(MirrorVIError, ArithmeticError):
    """The run landed on the trivial all-zero price vector."""


def check_integer(value, message: str) -> None:
    """Raise InvalidInput(message) unless value is an int or a numpy integer.

    A bool is not a count or a size, though it compares as one, and a float
    would run a loop a fractional number of times or fail inside numpy.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInput(f"{message}, got {value!r}")
