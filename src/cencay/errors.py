"""Exception types shared across the package.

The CLI maps InvalidInputError to exit code 2, CapExceededError to 3 and
InternalError to 4; any other exception exits with 5.
"""


class CencayError(Exception):
    """Base class for package errors."""


class InvalidInputError(CencayError, ValueError):
    """Malformed or contract-violating input (bad table, non-central class, ...)."""


class CapExceededError(CencayError, RuntimeError):
    """An internal size cap was exceeded (closure, automorphism search, ...)."""


class InternalError(CencayError, AssertionError):
    """A condition the theory guarantees failed to hold; indicates a bug."""
