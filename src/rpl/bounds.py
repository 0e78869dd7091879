"""Exact bound formulas for rational points and points-per-degree ratios.

Everything here is integer or Fraction arithmetic: literature decimals
are kept verbatim as exact decimal fractions, and no float ever enters a
comparison.

Each bound on the asymptotic points-per-degree ratio D(q) of projective
curves is a rule stated once: the upper bound q - 1, the explicit family
(ratio >= 1 for q > 2), the optimal-tower bound for square q, and halved
lower bounds on the Ihara constant A(q) from the literature table and from
the odd-power tower construction.  A row pairs the rules that hold at q
with their values; a summary gives the same records as Fractions.
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
# points-per-degree rules and summary
# ---------------------------------------------------------------------------


class BoundRecord(namedtuple("BoundRecord", "name direction value source")):
    """One bound: its direction is "upper" or "lower", its value a Fraction.  A rule is stated
    once, as a record of the value all its records share or None; rules of one kind are equal."""

    __slots__ = ()


class DqSummary(namedtuple("DqSummary", "q records best_lower")):
    """All applicable bound records for one prime power q, in listing order.

    records[0] is the upper bound q - 1 (the nondegenerate limit), which
    every q has, and each record after it is a lower bound.  best_lower is
    the largest lower value, always positive, or None when there is none (q = 2).
    """

    __slots__ = ()


_NONDEGENERATE_LIMIT, _EXPLICIT_FAMILY, _SQUARE_TOWER, _ODD_POWER = starmap(BoundRecord, (
    ("nondegenerate-limit", "upper", None,
     "limit of the nondegenerate point bound over growing dimension"),
    ("explicit-family", "lower", 1,
     "recursive projective family with as many points as its degree"),
    ("square-tower", "lower", None, "one-point embeddings of an optimal recursive tower"),
    ("half-ihara-odd-power", "lower", None,
     "half of the odd-power tower bound (Bassa-Beelen-Garcia-Stichtenoth 2015)")))
_HALF_TABLE = {q: (BoundRecord("half-ihara-table", "lower", None,
                               f"half of the tabulated A(q) bound ({entry.reference})"),
                   entry.half_lower) for q, entry in IHARA_HALF_TABLE.items()}


def dq_row(q: int, p: int | None = None, e: int | None = None) -> tuple:
    """(q, records, best): each rule that holds at q = p^e (q factored if p is None) with its
    value, an int if it is one, in listing order; best indexes the largest lower one or is None."""
    if p is None:
        p, e = factor_prime_power(q)
    records = [(_NONDEGENERATE_LIMIT, q - 1)]  # at every q
    if q > 2:
        records.append((_EXPLICIT_FAMILY, 1))
    if e == 1 and q not in _HALF_TABLE:  # q = 2, or a prime q > 31 with one lower record
        return q, records, 1 if q > 2 else None
    if e % 2 == 0:  # square q
        r = p ** (e // 2)
        records.append((_SQUARE_TOWER, Fraction(r * r - r, r + 1)))
    if q in _HALF_TABLE:
        records.append(_HALF_TABLE[q])
    if (half := half_ihara_odd_power(p, e)) is not None:  # odd e >= 3
        records.append((_ODD_POWER, half))
    return q, records, max(range(1, len(records)), key=lambda i: records[i][1])


def dq_rows(n: int) -> Iterator[tuple]:
    """dq_row(q) for each prime power q <= n, ascending, with no q factored."""
    return starmap(dq_row, prime_powers(n))


def dq_summary(q: int, p: int | None = None, e: int | None = None) -> DqSummary:
    """Collect every applicable points-per-degree bound record for q, as dq_row does."""
    q, records, best = dq_row(q, p, e)
    return DqSummary(q, tuple(rule._replace(value=Fraction(value)) for rule, value in records),
                     None if best is None else Fraction(records[best][1]))


def dq_table(n: int) -> Iterator[DqSummary]:
    """dq_summary(q) for each prime power q <= n, ascending, with no q factored."""
    return starmap(dq_summary, prime_powers(n))
