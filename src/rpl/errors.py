"""Typed errors shared by every module.

Every rejected input raises ``ValidationError``, a ValueError whose message
states the rule, and the CLI exits with code 2.  The other types (exit code
1) name what went wrong in a computation, and ``verify`` prints that name in
its FAIL details.
"""


class RplError(Exception):
    exit_code = 1


class ValidationError(RplError, ValueError):
    """Input rejected before any computation ran."""

    exit_code = 2


class ComputationError(RplError):
    """A computation failed one of its own certificates."""

    exit_code = 1


class DivisionByZero(RplError, ZeroDivisionError):
    """Field division by the zero element."""


class AdmissibilityViolation(ComputationError):
    """A tower transition left the admissible value set or had a bad fiber."""


class NotConverged(ComputationError):
    """Convergence target not reached within the allowed window."""
