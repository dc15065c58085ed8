"""Exception types and the numeric-field check shared across the package."""

import math
import numbers


class NumericalFailure(RuntimeError):
    """A numerical routine produced an unusable result.

    Raised when a factorization breaks down, an objective value turns
    non-finite, a basis is numerically rank-deficient for the symplectic
    SVD (the message gives the count of lost directions), or an input
    violates a positivity contract in a way that only shows up at run
    time.
    """


def check_number(name, value, integer=False):
    """Raise the ValueError naming the field `name` unless `value` is an
    integer (with `integer`) or else a finite real number; a bool is neither."""
    if integer:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    elif (isinstance(value, bool) or not isinstance(value, numbers.Real)
          or not math.isfinite(value)):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
