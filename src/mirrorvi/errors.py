"""Error types, and the integer, count, seed and real-number checks, shared across the library."""

import math

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


def check_count(value, name: str, least: int = 1) -> None:
    """Raise InvalidInput unless value is an integer (as check_integer) >= least.

    Every count and size argument of the library (set dimensions, horizons,
    sample and pair counts, grid resolutions, numbers of goods) applies this
    one rule, so each reads "<name> must be an integer, got ..." or
    "<name> must be >= <least>, got ...".
    """
    check_integer(value, f"{name} must be an integer")
    if value < least:
        raise InvalidInput(f"{name} must be >= {least}, got {value}")


def check_seed(seed) -> None:
    """Raise InvalidInput unless seed is an integer in [0, 2**64).

    The generator's Philox key is field * 2**64 + seed, so a seed outside the
    range would alias another seed's stream (or fail inside numpy when
    negative). A bool or a float is not a seed, though int() would make one
    of it. Every seeded entry point applies this one rule.
    """
    check_integer(seed, "seed must be a 64-bit unsigned integer")
    if not 0 <= seed < 2**64:
        raise InvalidInput(f"seed must be a 64-bit unsigned integer, got {seed}")


def check_number(value, name: str) -> None:
    """Raise InvalidInput unless value is an int, a float or a numpy integer or
    floating scalar.

    A bool is not a number here, though it compares as one, and a string or an
    array is not a scalar. Scalars with a range of their own (eta, a kernel
    floor, a cap factor, a CES rho) apply this test before their range test.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InvalidInput(f"{name} must be a real number, got {value!r}")


def check_real(value, name: str, positive: bool = False) -> None:
    """Raise InvalidInput unless value is a real number (as check_number) in
    [0, inf), or in (0, inf) when positive; a NaN fails too.

    Every price floor, tolerance, supply scale and bound of the library applies
    this one rule, so each reads "<name> must be finite and >= 0, got ..." or
    "<name> must be positive and finite, got ...".
    """
    check_number(value, name)
    if not (0.0 < value if positive else 0.0 <= value) or not value < math.inf:
        rule = "positive and finite" if positive else "finite and >= 0"
        raise InvalidInput(f"{name} must be {rule}, got {value}")
