"""Exact point counts for a recursive family of projective curves.

The family lives in P^ell over F_q (q > 2): a chain of ell-1 homogeneous
equations

    x_{i+1}^{q-1} = -z^{q-1} + (x_i + z)^{q-1},      i = 1, ..., ell-1,

defining a curve of degree (q-1)^(ell-1).  Both counts have closed forms.

At infinity (z = 0) the equations read x_{i+1}^{q-1} = x_i^{q-1}, so the
x_i are all zero or all nonzero.  A point has some x_i nonzero, so it is
normalized by x_1 = 1, and x_2..x_ell are free nonzero values:
(q-1)^(ell-1) points, the degree.

Affine points (z = 1) are chains with x_{i+1}^{q-1} = (x_i + 1)^{q-1} - 1.
The left side is 0 or 1, and the right side is 0 unless x_i = -1, where it
is -1.  So every value but -1 has the single successor 0, and -1 has a
successor only when -1 = 1.  For odd q, -1 is a dead end: the q-1 chains
start anywhere but -1 and then stay at 0, giving q-1 points.  For even q,
-1 = 1 maps to the q-1 nonzero values, one of them 1 again, so each level
turns the one chain sitting at 1 into q-1 chains and adds q-2 to the q
chains of level 1: ell(q-2) + 2 points.

Counting by value propagation and by projective enumeration are the
oracles in ``rpl.verify``.
"""

from __future__ import annotations

from collections import namedtuple

from . import MAX_PRINTED_DIGITS, PRINT_LIMIT, printable_power
from .errors import ValidationError
from .primes import factor_prime_power, field_order

COUNTED_EXP_DIGITS = 1000  # a degree's digits are counted up to this exponent length (17 ms)


class PointCount(namedtuple("PointCount", "affine infinity total")):
    """Affine / infinity split of a projective point count; ``of`` forms the total."""

    __slots__ = ()

    @classmethod
    def of(cls, affine: int, infinity: int) -> "PointCount":
        return cls(affine, infinity, affine + infinity)


def _check_family_params(q: int, ell: int) -> int:
    """Degree (q-1)^(ell-1) of a valid (q, ell): capped field, q > 2, ell >= 2, printable."""
    field_order(*factor_prime_power(q))
    if q <= 2:
        raise ValidationError(f"the curve family needs q > 2, got q = {q}")
    if ell < 2:
        raise ValidationError(f"ell must be >= 2, got {ell}")
    degree = printable_power(q - 1, ell - 1)
    if degree is None or degree + _affine(q, ell) >= PRINT_LIMIT:  # the total is printed too
        digits = _digit_count(q - 1, ell - 1)
        count = f"more than {MAX_PRINTED_DIGITS}" if digits is None else digits
        raise ValidationError(f"degree (q-1)^(ell-1) = {q - 1}^{ell - 1} has {count} digits; "
                              f"at most {MAX_PRINTED_DIGITS} can be printed")
    return degree


def _digit_count(base: int, exp: int) -> int | None:
    """Digits of base**exp for 2 <= base < 10^10; None, for a count past
    MAX_PRINTED_DIGITS, if exp has over COUNTED_EXP_DIGITS digits or log10
    leaves the count open.  log10 is correctly rounded to 20 digits more than
    exp has, so exp * log10(base) is off by under 10^-19, and within that of
    an integer k the count is k or k + 1."""
    if exp >= 10**COUNTED_EXP_DIGITS:
        return None
    from decimal import Context, Decimal, localcontext  # only a degree that may not print pays
    with localcontext(Context(prec=len(str(exp)) + 20)):  # not the caller's context
        x = exp * Decimal(base).log10()
        if abs(x - (k := round(x))) > Decimal("1e-19"):
            return int(x) + 1
    return k + (base**exp >= 10**k) if k <= MAX_PRINTED_DIGITS else None


def _affine(q: int, ell: int) -> int:
    return q - 1 if q % 2 else ell * (q - 2) + 2


def count_total(q: int, ell: int) -> PointCount:
    """Affine plus infinity counts for the ell-th curve over F_q; infinity is its degree."""
    degree = _check_family_params(q, ell)
    return PointCount.of(_affine(q, ell), degree)
