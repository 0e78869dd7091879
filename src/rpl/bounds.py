"""Exact bound formulas for rational points and points-per-degree ratios.

Everything here is integer or Fraction arithmetic: square roots go
through math.isqrt, literature decimals are kept verbatim as exact
decimal fractions, and no float ever enters a comparison.

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
from math import isqrt

from .errors import NotConverged, ValidationError
from .primes import factor_prime_power, prime_powers


def weil_bound(q: int, g: int) -> int:
    """Hasse-Weil upper bound floor(q + 1 + 2g*sqrt(q)), exactly."""
    factor_prime_power(q)
    if g < 0:
        raise ValidationError(f"genus must be >= 0, got {g}")
    return q + 1 + isqrt(4 * g * g * q)


def sziklai_bound(q: int, d: int) -> int:
    """Sziklai's bound (d-1)q + 1 for plane curves of degree d."""
    if d < 1:
        raise ValidationError(f"degree must be >= 1, got {d}")
    return (d - 1) * q + 1


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


class ConvergenceReport(namedtuple("ConvergenceReport", "q n_max eps n0 final_gap")):
    """Witness that the coefficient stays within eps of q - 1 from n0 on."""

    __slots__ = ()


def upper_limit_check(q: int, n_max: int, eps: Fraction) -> ConvergenceReport:
    """Find the least n0 with |coefficient(q, n) - (q-1)| < eps for all
    n in [n0, n_max], scanning exactly; NotConverged if no tail qualifies.

    The gap coefficient - (q-1) is (q-1)^2 (n+1) / D(n), D(n) = q^(n+1) - q - n(q-1), and
    (n+1) D(n+1) - (n+2) D(n) = q^(n+1) ((n+1)(q-1) - 1) + 1 > 0 for q >= 2, n >= 1: the gap
    is positive and falls strictly, so the first n inside the window starts the tail.
    """
    factor_prime_power(q)
    if n_max < 2:
        raise ValidationError(f"n_max must be >= 2, got {n_max}")
    eps = Fraction(eps)
    if eps <= 0:
        raise ValidationError(f"eps must be positive, got {eps}")
    target = q - 1
    n0 = next((n for n in range(2, n_max + 1) if nondegenerate_coefficient(q, n) - target < eps),
              None)
    if n0 is None:
        raise NotConverged(
            f"coefficient never entered the eps-window of q - 1 up to n_max = {n_max}"
        )
    return ConvergenceReport(
        q=q,
        n_max=n_max,
        eps=eps,
        n0=n0,
        final_gap=nondegenerate_coefficient(q, n_max) - target,
    )


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


class SurdBound(namedtuple("SurdBound", "q is_square exact radicand rational_upper")):
    """sqrt(q) - 1, exact for square q, else a surd with a rational cover."""

    __slots__ = ()


def drinfeld_vladut_upper(q: int) -> SurdBound:
    """Upper bound sqrt(q) - 1 on the Ihara constant A(q).

    Attained with equality when q is a square.  For non-squares the
    value is irrational; any rational at or above it is a valid cover,
    and the one returned is sqrt(q) rounded up at 6 decimal digits.
    """
    factor_prime_power(q)
    r = isqrt(q)
    if r * r == q:
        return SurdBound(q=q, is_square=True, exact=r - 1, radicand=None,
                         rational_upper=Fraction(r - 1))
    scale = 10**6
    cover = Fraction(isqrt(q * scale * scale) + 1, scale) - 1
    return SurdBound(q=q, is_square=False, exact=None, radicand=q,
                     rational_upper=cover)


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
    return DqSummary(q, tuple(records), max((rec.value for rec in records[1:]), default=None))
