"""The gs scope: the tower's split counts against a walk of its levels, its genus
against the semigroup's gaps, and its ratio sequence against its limit; no command
prints those two, so they are defined here, and ``verify.bounds`` reads the limit.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import partial

from .. import DEFAULT_N_MAX, gs_tower, semigroup
from ..errors import ValidationError
from ..gf import field_from_order, make_field
from ..primes import factor_prime_power
from . import CheckResult, _run, _solutions
from .semigroup import SEMIGROUP_Q, gap_mismatches

class AdmissibilityViolation(Exception):
    """A tower transition left the admissible value set or had a bad fiber."""


TOWER_Q = (2, 3, 4)
TOWER_M_MAX = 8
RATIO_Q = (2, 3, 4, 5)
RATIO_M = 40
RATIO_TOL = Fraction(1, 1000)


def points_per_degree_limit(q: int) -> Fraction:
    """Limit (q^2-q)/(q+1) of the ratio sequence."""
    semigroup.check_level(q, 1)  # q >= 2
    return Fraction(q * q - q, q + 1)


def tower_ratio_sequence(q: int, m_max: int) -> list[Fraction]:
    """Exact ratios (q-1)q^m / (c_m + q^(m-1) - 1) for m = 2..m_max.

    The denominator is the largest minimal generator of the level-m
    semigroup, the degree of the one-point embedding.  The m = 1 term is
    undefined (c_1 + q^0 - 1 is zero), so the sequence starts at level 2;
    m_max = 1 gives an empty list.
    """
    semigroup.check_level(q, 1)  # q >= 2
    if m_max < 1:
        raise ValidationError(f"m_max must be >= 1, got {m_max}")
    return [
        Fraction((q - 1) * q**m, semigroup.largest_generator(q, m)) for m in range(2, m_max + 1)
    ]


def tower_level_states(q: int, m: int) -> Iterator[dict[int, int]]:
    """Distributions of attained x_m values over F_{q^2}, one per level 1..m.

    The reference for ``gs_tower.count_split_chains``.  Raises
    AdmissibilityViolation if a value with v^(q-1) = -1 is ever reached or
    a fiber does not have exactly q elements; neither can happen when the
    admissible-set invariant holds.
    """
    p, e = factor_prime_power(q)
    semigroup.check_level(q, m)
    ctx = make_field(p, 2 * e)
    zero, one = ctx.zero, ctx.one
    trace = [ctx.add(ctx.pow(x, q), x) for x in ctx.elements()]
    dist = {a: 1 for a in ctx.elements() if trace[a] != zero}
    yield dist
    for level in range(2, m + 1):
        nxt: dict[int, int] = {}
        for v, mult in dist.items():
            den = ctx.add(ctx.pow(v, q - 1), one)
            if den == zero:
                raise AdmissibilityViolation(
                    f"level {level}: reached a value with v^(q-1) = -1"
                )
            rhs = ctx.div(ctx.pow(v, q), den)
            sols = _solutions(trace, rhs)
            if len(sols) != q:
                raise AdmissibilityViolation(
                    f"level {level}: fiber of size {len(sols)}, expected {q}"
                )
            for x in sols:
                nxt[x] = nxt.get(x, 0) + mult
        dist = nxt
        yield dist


def _check_split_closed_form() -> tuple[str, list[str]]:
    """One walk per q to level TOWER_M_MAX; an AdmissibilityViolation names its level."""
    failures: list[str] = []
    for q in TOWER_Q:
        level = 1
        try:
            for dist in tower_level_states(q, TOWER_M_MAX):
                mass = sum(dist.values())
                if mass != gs_tower.count_split_chains(q, level):
                    failures.append(f"({q},{level}) {mass}")
                level += 1
        except AdmissibilityViolation as exc:
            failures.append(f"({q},{level}) {type(exc).__name__}")
    return "split_count==(q-1)q^m (q in {2,3,4}, m in 1..8)", failures


def _check_tower_level_mass() -> tuple[str, list[str]]:
    failures: list[str] = []
    for q in TOWER_Q:
        ctx = field_from_order(q * q)
        k = q - 1
        for level, dist in enumerate(tower_level_states(q, TOWER_M_MAX), start=1):
            if sum(dist.values()) != (q * q - q) * q ** (level - 1):
                failures.append(f"({q},{level}) mass")
            for v in dist:
                if ctx.add(ctx.pow(v, k), ctx.one) == ctx.zero:
                    failures.append(f"({q},{level}) inadmissible value")
                    break
    return "tower_level_mass (q in {2,3,4})", failures


def _check_admissible_start_count() -> tuple[str, list[str]]:
    failures: list[str] = []
    for q in SEMIGROUP_Q:
        count = len(next(tower_level_states(q, 1)))
        if count != q * q - q:
            failures.append(f"q={q} count {count}")
    return "admissible_start_count q in {2,3,4,5}", failures


def _check_gap_genus(q: int) -> tuple[str, list[str]]:
    cells = [(q, m) for m in range(2, TOWER_M_MAX + 1)]
    failures = [f"m={m} gaps {gaps}" for _, m, gaps in gap_mismatches(cells)]
    return f"gap_count==genus for ({q},2..{TOWER_M_MAX})", failures


def _check_ratio_limit() -> tuple[str, list[str]]:
    failures: list[str] = []
    for q in RATIO_Q:
        seq = tower_ratio_sequence(q, RATIO_M)
        gap = abs(seq[-1] - points_per_degree_limit(q))
        if gap >= RATIO_TOL:
            failures.append(f"q={q} gap {gap}")
    return "ratio_gap_at_m=40 < 1/1000 (q in {2,3,4,5})", failures


def _check_ratio_monotone() -> tuple[str, list[str]]:
    failures: list[str] = []
    for q in RATIO_Q:
        seq = tower_ratio_sequence(q, 45)
        limit = points_per_degree_limit(q)
        if any(a <= b for a, b in zip(seq, seq[1:])):
            failures.append(f"q={q} not decreasing")
        if any(r <= limit for r in seq):
            failures.append(f"q={q} crosses limit")
    return "ratio_monotone_decreasing m in 2..45", failures


def _check_frozen_tower_values() -> tuple[str, list[str]]:
    checks = (
        gs_tower.count_split_chains(2, 2) == 4,
        gs_tower.count_split_chains(2, 1) == 2,
        gs_tower.count_split_chains(3, 2) == 18,
        gs_tower.count_split_chains(2, 4) == 16,
        semigroup.gap_count(2, 2) == 1,
        semigroup.gap_count(2, 3) == 3,
        semigroup.gap_count(3, 1) == 0,
        semigroup.gap_count(2, 4) == 9,
        tower_ratio_sequence(2, 4)[-1] == Fraction(16, 19),
        points_per_degree_limit(2) == Fraction(2, 3),
        points_per_degree_limit(3) == Fraction(3, 2),
    )
    return "frozen_tower_values", [str(i) for i, ok in enumerate(checks) if not ok]


def check_gs(n_max: int = DEFAULT_N_MAX) -> list[CheckResult]:
    return _run("gs", _check_split_closed_form, _check_tower_level_mass,
                _check_admissible_start_count, *(partial(_check_gap_genus, q) for q in SEMIGROUP_Q),
                _check_ratio_limit, _check_ratio_monotone, _check_frozen_tower_values)
