"""Garcia-Stichtenoth tower over F_{q^2} and its split-place counts.

Level m of the tower adjoins x_{m} with

    x_{m}^q + x_{m} = x_{m-1}^q / (x_{m-1}^{q-1} + 1).

Its completely split places are counted in closed form.  Over F_{q^2} the
map x -> x^q + x is the trace to F_q: F_q-linear, onto F_q, with a kernel
of q elements, so every value of F_q has a fiber of exactly q elements.
Call v admissible when v^q + v != 0; q^2 - q values are.  For admissible v
the right-hand side equals v^(q+1) / (v^q + v), a norm over a trace, both
in F_q^*.  So the equation for x_{m} has exactly q solutions, each with
that nonzero right-hand side as its trace, hence admissible again.  The
chains of solutions from the admissible starts give (q^2 - q) q^(m-1) =
(q-1) q^m split places at level m (Garcia-Stichtenoth, Invent. Math. 121,
1995).  Walking every chain over F_{q^2} is the oracle in ``rpl.verify``.
The genus is ``semigroup.gap_count(q, m)``; the ratio sequence has a closed form.
"""

from __future__ import annotations

from . import semigroup
from .errors import ValidationError
from .primes import factor_prime_power, field_order


def check_tower_field(q: int, m: int) -> None:
    """Reject q that is not a prime power, then m < 1, then F_{q^2} over the field cap."""
    p, e = factor_prime_power(q)
    semigroup.check_level(q, m)
    field_order(p, 2 * e)


def count_split_chains(q: int, m: int) -> int:
    """Split places (q-1)*q^m of level m, a certified lower bound on its rational places.

    Only the completely split places above the q^2 - q admissible starting
    values are counted; the one totally ramified rational place is not added, so
    this stays a bound rather than a claimed exact total.  F_{q^2} must be
    under the field cap, as for every field the package works over.
    """
    check_tower_field(q, m)
    return (q - 1) * q**m


def points_per_degree_limit(q: int) -> Fraction:
    """Limit (q^2-q)/(q+1) of the ratio sequence."""
    from fractions import Fraction  # only verify and the tests read the ratios
    semigroup.check_level(q, 1)  # q >= 2
    return Fraction(q * q - q, q + 1)


def tower_ratio_sequence(q: int, m_max: int) -> list[Fraction]:
    """Exact ratios (q-1)q^m / (c_m + q^(m-1) - 1) for m = 2..m_max.

    The denominator is the largest minimal generator of the level-m
    semigroup, the degree of the one-point embedding.  The m = 1 term is
    undefined (c_1 + q^0 - 1 is zero), so the sequence starts at level 2;
    m_max = 1 gives an empty list.
    """
    from fractions import Fraction
    semigroup.check_level(q, 1)  # q >= 2
    if m_max < 1:
        raise ValidationError(f"m_max must be >= 1, got {m_max}")
    return [
        Fraction((q - 1) * q**m, semigroup.largest_generator(q, m)) for m in range(2, m_max + 1)
    ]
