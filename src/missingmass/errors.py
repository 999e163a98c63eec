"""Error taxonomy shared across the package.

Three failure classes matter to callers: a value that is malformed or outside
a function's mathematical domain (InvalidInputError), structurally valid
parameters that fall outside the regime where a formula is proved to hold
(RegimeError), and a numerical solve that breaks a property it must keep
(NumericalError).  The CLI maps them to exit codes 2, 3 and 5; it also
maps a MemoryError, or numpy's ValueError for an array size it cannot
address, to exit code 3.

require_int is the one integer check of the package: every public entry
that takes a sample size, an order, a count or a seed passes it through
require_int, which returns it as an int or raises InvalidInputError.
require_real and require_real_array are the one rule for real arguments.
"""

import contextlib
import math
import numbers
import operator
import reprlib

import numpy as np


class InvalidInputError(ValueError):
    """Malformed value or argument outside a function's domain."""


class RegimeError(ValueError):
    """Parameters outside the regime in which a bound or estimator is valid."""


class NumericalError(ArithmeticError):
    """An internal numerical check failed: a Chernoff solve missed its
    residual tolerance, or a bound's parameters left the double range."""


def require_int(name: str, value, lo: int, hi: float = math.inf) -> int:
    """value as an int, if it is an int, a numpy integer or an integral float
    in [lo, hi]; otherwise (NaN, +-inf, a fraction, a string, None, ...)
    InvalidInputError naming the argument."""
    try:
        out = operator.index(value)
    except TypeError:
        out = int(value) if isinstance(value, float) and value.is_integer() else None
    if out is None or not lo <= out <= hi:
        span = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise InvalidInputError(f"{name} must be an integer {span}, got {value!r}")
    return out


def require_real(name: str, value) -> float:
    """float(value) for a bool, int, float, Fraction or numpy integer or
    floating scalar in the double range, NaN included (each range check
    rejects it); anything else raises InvalidInputError naming the argument."""
    with contextlib.suppress(OverflowError):
        if isinstance(value, numbers.Real):
            return float(value)
    raise InvalidInputError(f"{name} must be a real number, got {value!r}")


def require_real_array(name: str, value) -> np.ndarray:
    """np.asarray(value) as float64, not copied if float64, for bools, ints or
    floats; anything else (strings, None, complex, ragged) InvalidInputError."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "biuf":
        raise InvalidInputError(f"{name} must be real numbers, got {reprlib.repr(value)}")
    return arr.astype(float, copy=False)
