"""Recursive function-field tower over F_{q^2} and its split-place counts.

Level m of the tower adjoins x_{m} with

    x_{m}^q + x_{m} = x_{m-1}^q / (x_{m-1}^{q-1} + 1),

and every chain of solutions starting from a value a with a^q + a != 0
stays inside that admissible set with fibers of size exactly q.  The
(q^2-q) admissible starting values therefore certify (q-1)*q^m rational
places at level m.  Genus and the points-per-degree ratio sequence have
closed forms checked against the chain enumeration elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import AdmissibilityViolation, ComputationError, ValidationError
from .gf import factor_prime_power, make_field, solve_artin_schreier
from .semigroup import conductor


@dataclass(frozen=True)
class TowerLevelState:
    """Distribution of attained x_m values at one tower level."""

    level: int
    dist: dict[int, int]


def genus(q: int, m: int) -> int:
    """Genus of level m: (q^(m/2)-1)^2 for even m, split form for odd."""
    factor_prime_power(q)
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    if m % 2 == 0:
        r = q ** (m // 2) - 1
        return r * r
    return (q ** ((m + 1) // 2) - 1) * (q ** ((m - 1) // 2) - 1)


def rational_places_lower_bound(q: int, m: int) -> int:
    """Certified lower bound (q-1)*q^m on rational places at level m.

    Only the completely split places below the admissible starting
    values are counted; the one totally ramified rational place is not
    added, so this stays a bound rather than a claimed exact total.
    """
    factor_prime_power(q)
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    return (q - 1) * q**m


def tower_level_states(q: int, m: int) -> Iterator[TowerLevelState]:
    """Walk the value distributions of levels 1..m over F_{q^2}.

    Raises AdmissibilityViolation if a value with v^(q-1) = -1 is ever
    reached or a fiber does not have exactly q elements; neither can
    happen when the admissible-set invariant holds.
    """
    p, e = factor_prime_power(q)
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    ctx = make_field(p, 2 * e)
    zero, one = ctx.zero, ctx.one
    dist = {a: 1 for a in ctx.elements() if ctx.add(ctx.pow(a, q), a) != zero}
    yield TowerLevelState(1, dist)
    for level in range(2, m + 1):
        nxt: dict[int, int] = {}
        for v, mult in dist.items():
            den = ctx.add(ctx.pow(v, q - 1), one)
            if den == zero:
                raise AdmissibilityViolation(
                    f"level {level}: reached a value with v^(q-1) = -1"
                )
            rhs = ctx.div(ctx.pow(v, q), den)
            sols = solve_artin_schreier(ctx, q, rhs)
            if len(sols) != q:
                raise AdmissibilityViolation(
                    f"level {level}: fiber of size {len(sols)}, expected {q}"
                )
            for x in sorted(sols):
                nxt[x] = nxt.get(x, 0) + mult
        dist = nxt
        yield TowerLevelState(level, dist)


def count_split_chains(q: int, m: int) -> int:
    """Number of solution chains over the admissible starting values.

    Certified equal to (q-1)*q^m: the walk checks every fiber has size
    q, and the final mass is compared with the closed form.
    """
    mass = 0
    for state in tower_level_states(q, m):
        mass = sum(state.dist.values())
    expected = (q - 1) * q**m
    if mass != expected:
        raise ComputationError(
            f"split-chain count {mass} != closed form {expected} for q={q}, m={m}"
        )
    return mass


def points_per_degree_limit(q: int) -> Fraction:
    """Limit (q^2-q)/(q+1) of the ratio sequence."""
    if q < 2:
        raise ValidationError(f"q must be >= 2, got {q}")
    return Fraction(q * q - q, q + 1)


def tower_ratio_sequence(q: int, m_max: int) -> list[Fraction]:
    """Exact ratios (q-1)q^m / (c_m + q^(m-1) - 1) for m = 2..m_max.

    The m = 1 term is undefined (its degree bound c_1 + q^0 - 1 is zero),
    so the sequence starts at level 2; m_max = 1 gives an empty list.
    """
    if q < 2:
        raise ValidationError(f"q must be >= 2, got {q}")
    if m_max < 1:
        raise ValidationError(f"m_max must be >= 1, got {m_max}")
    return [
        Fraction((q - 1) * q**m, conductor(q, m) + q ** (m - 1) - 1)
        for m in range(2, m_max + 1)
    ]
