"""Semantic exception types shared across the package.

The CLI maps these onto fixed exit codes (schema 2, domain 3, budget 4),
so library code should raise these rather than bare ValueError wherever a
caller could plausibly want to dispatch on the failure class. The check
functions at the end are the one policy for integer, positive and
unit-interval arguments: they raise DomainError, never coerce, and fail nan.
as_float is the one conversion of a checked integer into float arithmetic.
"""

from __future__ import annotations

from math import inf
from numbers import Integral

__all__ = [
    "ScreenLimitsError",
    "DomainError",
    "RangeOverflowError",
    "AlreadyUnreliableError",
    "BracketError",
    "SchemaError",
    "BudgetError",
    "check_int",
    "check_positive",
    "check_unit",
    "as_float",
]


class ScreenLimitsError(Exception):
    """Base class for all package-specific failures."""


class DomainError(ScreenLimitsError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class RangeOverflowError(DomainError):
    """A derived quantity exceeds the supported numeric range."""


class AlreadyUnreliableError(DomainError):
    """The failure criterion is already met at t = 0; no root to bracket."""


class BracketError(DomainError):
    """The requested root is not bracketed inside the search interval."""


class SchemaError(ScreenLimitsError, ValueError):
    """A scenario or config file violates its declared parameter schema."""


class BudgetError(ScreenLimitsError, RuntimeError):
    """A simulation plan exceeds the configured computational budget."""


# check_int's words for [lo, hi]; any other range reads "an integer in [lo, hi]"
_INT_WORDS = {
    (-inf, inf): "an integer",
    (0, inf): "a nonnegative integer",
    (1, inf): "a positive integer",
    (0, 2**64 - 1): "a 64-bit unsigned integer",
}


def check_int(name: str, value, lo: int | float = -inf, hi: int | float = inf) -> None:
    """Raise DomainError unless `value` is an integer in [lo, hi].

    An integer is a numbers.Integral that is not a bool. Floats fail, integral
    or not, so 1000.0 is not silently taken for 1000 and nan never reaches int().
    """
    if isinstance(value, bool) or not isinstance(value, Integral) or not lo <= value <= hi:
        words = _INT_WORDS.get((lo, hi), f"an integer in [{lo}, {hi}]")
        raise DomainError(f"{name} must be {words}, got {value}")


def check_positive(name: str, value) -> None:
    """Raise DomainError unless value > 0."""
    if not (value > 0.0):
        raise DomainError(f"{name} must be positive, got {value}")


def check_unit(name: str, value, interval: str = "(0, 1)") -> None:
    """Raise DomainError unless value lies in `interval`: "(0, 1)", "[0, 1]" or "(0, 1]"."""
    above = value > 0.0 if interval[0] == "(" else value >= 0.0
    below = value < 1.0 if interval[-1] == ")" else value <= 1.0
    if not (above and below):
        strictly = "strictly " if interval == "(0, 1)" else ""
        raise DomainError(f"{name} must lie {strictly}in {interval}, got {value}")


def as_float(name: str, value) -> float:
    """float(value), or RangeOverflowError for an integer beyond the double range."""
    try:
        return float(value)
    except OverflowError:
        raise RangeOverflowError(f"{name} exceeds the double range (~1.8e308)") from None
