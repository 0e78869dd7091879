"""Typed errors shared by every module.

Two families matter to the CLI: validation errors (bad parameters, exit
code 2; every input rule raises one, and it is also a ValueError) and
computation errors (an internal certificate failed or a computation did
not reach its target, exit code 1).
"""


class RplError(Exception):
    exit_code = 1


class ValidationError(RplError, ValueError):
    """Input rejected before any computation ran."""

    exit_code = 2


class ComputationError(RplError):
    """A computation failed one of its own certificates."""

    exit_code = 1


class NonPrime(ValidationError):
    """Characteristic is not a prime number."""


class NotPrimePower(ValidationError):
    """Field order is not p^e for any prime p."""


class FieldTooLarge(ValidationError):
    """Field order exceeds the enumeration cap."""


class QTooSmall(ValidationError):
    """The curve family requires q strictly larger than 2."""


class TooLarge(ValidationError):
    """Requested enumeration or bitmap exceeds its documented cap."""


class DivisionByZero(RplError, ZeroDivisionError):
    """Field division by the zero element."""


class AdmissibilityViolation(ComputationError):
    """A tower transition left the admissible value set or had a bad fiber."""


class NotConverged(ComputationError):
    """Convergence target not reached within the allowed window."""
