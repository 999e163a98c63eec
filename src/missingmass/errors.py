"""Error taxonomy shared across the package.

Three failure classes matter to callers: a value that is malformed or outside
a function's mathematical domain (InvalidInputError), structurally valid
parameters that fall outside the regime where a formula is proved to hold
(RegimeError), and a numerical solve that breaks a property it must keep
(NumericalError).  The CLI maps them to exit codes 2, 3 and 5; it also
maps a MemoryError (an array too large to allocate) to exit code 3.
"""


class InvalidInputError(ValueError):
    """Malformed value or argument outside a function's domain."""


class RegimeError(ValueError):
    """Parameters outside the regime in which a bound or estimator is valid."""


class NumericalError(ArithmeticError):
    """An internal numerical check failed: a Chernoff solve missed its
    residual tolerance, or a bound's parameters left the double range."""
