"""Exact bound formulas for rational points and points-per-degree ratios.

Everything here is integer or Fraction arithmetic: literature decimals
are kept verbatim as exact decimal fractions, and no float ever enters a
comparison.

The summary object collects, for a prime power q, the known upper bound
q - 1 on the asymptotic points-per-degree ratio of projective curves
(often written D(q)) together with every applicable lower-bound record:
the explicit family (ratio >= 1 for q > 2), the optimal-tower bound for
square q, and halved lower bounds on the Ihara constant A(q) from the
literature table and from the odd-power tower construction.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from itertools import starmap

from .errors import ValidationError
from .primes import factor_prime_power, prime_powers


def nondegenerate_coefficient(q: int, n: int) -> Fraction:
    """Per-degree coefficient of the nondegenerate-curve point bound in P^n.

    Equals (q-1)(q^(n+1)-1) / (q(q^n-1) - n(q-1)); strictly above q - 1
    and converging to it as n grows.  The denominator is
    (q-1)(q(1 + q + ... + q^(n-1)) - n) >= (q-1)n > 0 for every q >= 2.
    """
    factor_prime_power(q)
    if n < 2:
        raise ValidationError(f"dimension n must be >= 2, got {n}")
    den = q * (q**n - 1) - n * (q - 1)
    return Fraction((q - 1) * (q ** (n + 1) - 1), den)


# ---------------------------------------------------------------------------
# Ihara-constant inputs
# ---------------------------------------------------------------------------


class IharaTableEntry(namedtuple("IharaTableEntry", "q printed half_lower reference")):
    """One tabulated lower bound on A(q)/2, kept verbatim as printed."""

    __slots__ = ()


class BoundRecord(namedtuple("BoundRecord", "name direction value source")):
    """One bound: its direction is "upper" or "lower", its value a Fraction."""

    __slots__ = ()


# the twelve tabulated A(q)/2 lower bounds (truncated literature values), by q
IHARA_HALF_TABLE = {
    q: IharaTableEntry(q=q, printed=printed, half_lower=Fraction(printed), reference=ref)
    for q, printed, ref in (
        (3, "0.2464", "Duursma-Mak 2013"),
        (4, "0.5", "Ihara 1981; Tsfasman-Vladut-Zink 1982"),
        (5, "0.3636", "Temkine 2001; Angles-Maire 2002"),
        (7, "0.4615", "Hall-Seelig 2013"),
        (8, "0.75", "Zink 1985"),
        (11, "0.5714", "Hall-Seelig 2013"),
        (13, "0.6", "Li-Maharaj 2002"),
        (17, "0.8", "Li-Maharaj 2002"),
        (19, "0.8", "Hall-Seelig 2013"),
        (23, "0.9230", "Hall-Seelig 2013"),
        (29, "0.9523", "Hall-Seelig 2013"),
        (31, "0.9523", "Hall-Seelig 2013"),
    )
}

# the half-ihara-table record of each tabulated q, its source formatted once
_HALF_TABLE_RECORDS = {
    q: BoundRecord("half-ihara-table", "lower", entry.half_lower,
                   f"half of the tabulated A(q) bound ({entry.reference})")
    for q, entry in IHARA_HALF_TABLE.items()
}


def half_ihara_odd_power(p: int, e: int) -> Fraction | None:
    """Half of the odd-power tower bound on A(q), for q = p^e with e = 2m+1, m >= 1.

    A(p^(2m+1)) >= 2 * (1/(p^m - 1) + 1/(p^(m+1) - 1))^(-1)
    (Bassa-Beelen-Garcia-Stichtenoth towers), so half of it is the
    harmonic-style expression below; None when the exponent is even or 1.
    """
    if e < 3 or e % 2 == 0:
        return None
    m = (e - 1) // 2
    a, b = p**m - 1, p ** (m + 1) - 1
    return Fraction(a * b, a + b)


# ---------------------------------------------------------------------------
# points-per-degree summary
# ---------------------------------------------------------------------------


class DqSummary(namedtuple("DqSummary", "q records best_lower")):
    """All applicable bound records for one prime power q, in listing order.

    records[0] is the upper bound q - 1 (the nondegenerate limit), which
    every q has, and each record after it is a lower bound.  best_lower is
    the largest lower value, always positive, or None when there is none (q = 2).
    """

    __slots__ = ()


_EXPLICIT_FAMILY = BoundRecord(
    "explicit-family", "lower", Fraction(1),
    "recursive projective family with as many points as its degree")


def dq_summary(q: int) -> DqSummary:
    """Collect every applicable points-per-degree bound record for q."""
    return _dq_summary(q, *factor_prime_power(q))


def dq_table(n: int) -> Iterator[DqSummary]:
    """dq_summary(q) for each prime power q <= n, ascending, with no q factored."""
    return starmap(_dq_summary, prime_powers(n))


def _dq_summary(q: int, p: int, e: int) -> DqSummary:
    """dq_summary(q) for q = p^e, p prime: each rule appends its record, in listing order."""
    records = [BoundRecord("nondegenerate-limit", "upper", Fraction(q - 1),
                           "limit of the nondegenerate point bound over growing dimension")]
    if q > 2:
        records.append(_EXPLICIT_FAMILY)
    if e % 2 == 0:
        r = p ** (e // 2)
        records.append(BoundRecord("square-tower", "lower", Fraction(r * r - r, r + 1),
                                   "one-point embeddings of an optimal recursive tower"))
    if q in _HALF_TABLE_RECORDS:
        records.append(_HALF_TABLE_RECORDS[q])
    if (half := half_ihara_odd_power(p, e)) is not None:
        records.append(BoundRecord(
            "half-ihara-odd-power", "lower", half,
            "half of the odd-power tower bound (Bassa-Beelen-Garcia-Stichtenoth 2015)"))
    # a lone lower record, as every prime q > 31 has, is the best one: no max
    return DqSummary(q, tuple(records), records[1].value if len(records) == 2 else
                     max((rec.value for rec in records[1:]), default=None))
