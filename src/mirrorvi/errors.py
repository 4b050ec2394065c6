"""Error types, and the integer, count, seed and real-number checks, shared across the library."""

import math

import numpy as np


class MirrorVIError(Exception):
    """Base class for all library errors."""


class InvalidInput(MirrorVIError, ValueError):
    """An argument violates a documented precondition."""


class EvaluationError(MirrorVIError, ArithmeticError):
    """An operator or demand evaluation produced non-finite values."""


class InsufficientData(MirrorVIError, ValueError):
    """A trace is too short for the requested statistic."""


class DegenerateSolution(MirrorVIError, ArithmeticError):
    """The run landed on the trivial all-zero price vector."""


def check_integer(value, message: str) -> None:
    """Raise InvalidInput(f"{message}, got {value!r}") unless value is an int or
    a numpy integer; a bool is not one, though it compares as one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInput(f"{message}, got {value!r}")


def check_count(value, name: str, least: int = 1) -> None:
    """The rule for every count and size: an integer (check_integer) >= least.

    Raises InvalidInput("<name> must be an integer, got ...") or
    InvalidInput("<name> must be >= <least>, got ...").
    """
    check_integer(value, f"{name} must be an integer")
    if value < least:
        raise InvalidInput(f"{name} must be >= {least}, got {value}")


def check_seed(seed) -> None:
    """The rule for every seed: raise InvalidInput unless seed is an integer
    (check_integer) in [0, 2**64), where no two seeds share a Philox key."""
    check_integer(seed, "seed must be a 64-bit unsigned integer")
    if not 0 <= seed < 2**64:
        raise InvalidInput(f"seed must be a 64-bit unsigned integer, got {seed}")


def check_number(value, name: str) -> None:
    """Raise InvalidInput("<name> must be a real number, got ...") unless value is
    an int, a float or a numpy integer or floating scalar, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InvalidInput(f"{name} must be a real number, got {value!r}")


def check_real(value, name: str, positive: bool = False) -> None:
    """The rule for every real scalar: a real number (check_number) in [0, inf),
    or (0, inf) when positive, else InvalidInput("<name> must be finite and
    >= 0, got ...") or ("<name> must be positive and finite, got ...").
    """
    check_number(value, name)
    if not (0.0 < value if positive else 0.0 <= value) or not value < math.inf:
        rule = "positive and finite" if positive else "finite and >= 0"
        raise InvalidInput(f"{name} must be {rule}, got {value}")
