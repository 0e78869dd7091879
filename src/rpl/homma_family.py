"""Exact point counts for a recursive family of projective curves.

The family lives in P^ell over F_q (q > 2): a chain of ell-1 homogeneous
equations

    x_{i+1}^{q-1} = -z^{q-1} + (x_i + z)^{q-1},      i = 1, ..., ell-1,

defining a curve of degree (q-1)^(ell-1) with exactly (q-1)^(ell-1)
points on the hyperplane z = 0.  Affine points (z = 1) are counted by
propagating a multiset of attained x_i values level by level; the points
at infinity have a closed form.  Both counts are cross-checked against
dumb projective enumeration whenever q^ell stays within BRUTE_FORCE_CAP.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

from .errors import ComputationError, QTooSmall, TooLarge, ValidationError
from .gf import FieldContext, factor_prime_power, field_from_order, solve_power_residue

BRUTE_FORCE_CAP = 10**7


@dataclass(frozen=True)
class PointCount:
    """Affine / infinity split of a projective point count."""

    affine: int
    infinity: int
    total: int

    def __post_init__(self) -> None:
        if self.affine < 0 or self.infinity < 0:
            raise ValueError("point counts must be non-negative")
        if self.total != self.affine + self.infinity:
            raise ValueError("total must equal affine + infinity")

    @classmethod
    def of(cls, affine: int, infinity: int) -> "PointCount":
        return cls(affine, infinity, affine + infinity)


class ValueDistribution:
    """Multiset of field values with positive integer multiplicities."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict[int, int]):
        for value, mult in entries.items():
            if not isinstance(mult, int) or mult <= 0:
                raise ValueError(f"multiplicity of {value} must be a positive integer")
        self.entries = dict(entries)

    @classmethod
    def uniform(cls, values: Iterable[int]) -> "ValueDistribution":
        return cls({v: 1 for v in values})

    def total_mass(self) -> int:
        return sum(self.entries.values())

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValueDistribution):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"ValueDistribution({len(self.entries)} values, mass {self.total_mass()})"


def _check_family_params(q: int, ell: int) -> None:
    factor_prime_power(q)
    if q <= 2:
        raise QTooSmall(f"the curve family needs q > 2, got q = {q}")
    if ell < 2:
        raise ValidationError(f"ell must be >= 2, got {ell}")


def curve_degree(q: int, ell: int) -> int:
    """Degree (q-1)^(ell-1) of the ell-th curve of the family."""
    _check_family_params(q, ell)
    return (q - 1) ** (ell - 1)


def affine_level_states(q: int, ell: int) -> Iterator[ValueDistribution]:
    """Distributions of attained x_i values, one per level 1..ell.

    Level 1 is uniform over F_q; each later level maps a value v to the
    full solution set of y^{q-1} = -1 + (v+1)^{q-1} from
    solve_power_residue, multiplicities carried along.  Mass can never
    grow by more than a factor q per level (fibers have at most q
    elements).
    """
    _check_family_params(q, ell)
    ctx = field_from_order(q)
    one = ctx.one
    k = q - 1
    dist = ValueDistribution.uniform(ctx.elements())
    yield dist
    for _ in range(ell - 1):
        nxt: dict[int, int] = {}
        for v, mult in dist.entries.items():
            rhs = ctx.sub(ctx.pow(ctx.add(v, one), k), one)
            for y in sorted(solve_power_residue(ctx, rhs, k)):
                nxt[y] = nxt.get(y, 0) + mult
        out = ValueDistribution(nxt)
        if out.total_mass() > q * dist.total_mass():
            raise ComputationError("level mass grew faster than the fiber bound q")
        dist = out
        yield dist


def count_affine(q: int, ell: int) -> int:
    """Number of affine points (z = 1), by value propagation."""
    count = 0
    for dist in affine_level_states(q, ell):
        count = dist.total_mass()
    return count


def count_infinity(q: int, ell: int) -> int:
    """Number of points with z = 0: always (q-1)^(ell-1).

    When q^ell <= BRUTE_FORCE_CAP the closed form is re-derived by brute
    force over normalized tuples with z = 0; disagreement is a hard error.
    """
    _check_family_params(q, ell)
    analytic = (q - 1) ** (ell - 1)
    if q**ell <= BRUTE_FORCE_CAP:
        ctx = field_from_order(q)
        brute = _scan_infinity(ctx, ell)
        if brute != analytic:
            raise ComputationError(
                f"infinity count mismatch for q={q}, ell={ell}: "
                f"closed form {analytic}, enumeration {brute}"
            )
    return analytic


def count_total(q: int, ell: int) -> PointCount:
    """Affine plus infinity counts for the ell-th curve over F_q."""
    return PointCount.of(count_affine(q, ell), count_infinity(q, ell))


def brute_force_projective(q: int, ell: int) -> PointCount:
    """Independent oracle: filter every normalized point of P^ell(F_q).

    Representatives have first nonzero coordinate 1, scanning
    (x_1, ..., x_ell, z) in order.  Refuses to run past BRUTE_FORCE_CAP.
    """
    _check_family_params(q, ell)
    if q**ell > BRUTE_FORCE_CAP:
        raise TooLarge(
            f"q^ell = {q**ell} exceeds the brute-force cap {BRUTE_FORCE_CAP}"
        )
    ctx = field_from_order(q)
    pw, rows = _power_tables(ctx)
    affine = infinity = 0
    for j in range(ell + 1):
        prefix = (0,) * j + (1,)
        for tail in product(range(q), repeat=ell - j):
            coords = prefix + tail
            row = rows[coords[ell]]
            prev = coords[0]
            ok = True
            for t in range(1, ell):
                cur = coords[t]
                if pw[cur] != row[prev]:
                    ok = False
                    break
                prev = cur
            if ok:
                if coords[ell]:
                    affine += 1
                else:
                    infinity += 1
    return PointCount.of(affine, infinity)


def _power_tables(ctx: FieldContext) -> tuple[list[int], list[list[int]]]:
    """Tables pw[v] = v^(q-1); rows[z][v] = (v+z)^(q-1) - z^(q-1)."""
    k = ctx.q - 1
    pw = [ctx.pow(v, k) for v in ctx.elements()]
    rows = [
        [ctx.sub(ctx.pow(ctx.add(v, z), k), pw[z]) for v in ctx.elements()]
        for z in ctx.elements()
    ]
    return pw, rows


def _scan_infinity(ctx: FieldContext, ell: int) -> int:
    """Count normalized tuples with z = 0 satisfying every equation."""
    q = ctx.q
    pw = [ctx.pow(v, q - 1) for v in ctx.elements()]
    # with z = 0 the equations collapse to x_{i+1}^{q-1} = x_i^{q-1}
    count = 0
    for j in range(ell):
        prefix = (0,) * j + (1,)
        for tail in product(range(q), repeat=ell - 1 - j):
            coords = prefix + tail
            prev = coords[0]
            ok = True
            for t in range(1, ell):
                cur = coords[t]
                if pw[cur] != pw[prev]:
                    ok = False
                    break
                prev = cur
            if ok:
                count += 1
    return count
