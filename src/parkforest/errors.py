"""Exception types shared across the package.

Every rejection of malformed input raises a subclass of InputError, so
callers (and the CLI) can catch one type and map it to a usage error
without masking genuine bugs, which raise ordinary exceptions.
"""


class InputError(ValueError):
    """Base class for all rejections of malformed or out-of-domain input."""


class SelfParentError(InputError):
    """A vertex listed itself as its own parent."""


class CycleError(InputError):
    """The parent sequence contains a cycle, so it is not a forest."""


class OutOfRangeError(InputError):
    """A value lies outside the permitted range for its position."""


class InvalidInversionValueError(InputError):
    """An inversion count exceeds what the subtree it sits on allows."""


class BudgetExceededError(InputError):
    """An exhaustive sweep was requested beyond the supported size."""


class NotParkingFunctionError(InputError):
    """A preference sequence fails the parking test."""


class MalformedInputError(InputError):
    """Input text or structure could not be parsed at all."""
