"""The semigroup scope: ``rpl.semigroup`` against the recursion and a pair-sum sieve."""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from itertools import chain, compress, pairwise

from .. import DEFAULT_N_MAX, semigroup
from ..errors import ValidationError
from . import CheckResult, ComputationError, _run

SEMIGROUP_Q = (2, 3, 4, 5)
SEMIGROUP_CONDUCTOR_CAP = 10**6
CLOSURE_PAIRS = 500


def semigroup_grid() -> list[tuple[int, int]]:
    """All (q, m) with q in SEMIGROUP_Q and conductor(q, m) <= 10^6."""
    grid = []
    for q in SEMIGROUP_Q:
        m = 1
        while semigroup.conductor(q, m) <= SEMIGROUP_CONDUCTOR_CAP:
            grid.append((q, m))
            m += 1
    return grid


class NumericalSemigroup:
    """Cofinite additive submonoid of Z>=0.

    below is the ascending tuple of its members less than conductor; every
    n >= conductor is a member.  The stored conductor is always minimal
    (conductor - 1 is a gap whenever conductor > 0).
    """

    __slots__ = ("conductor", "below")

    def __init__(self, conductor: int, below: tuple[int, ...]) -> None:
        if conductor < 0 or any(a >= b for a, b in pairwise(below)):
            raise ValidationError("members must ascend strictly from a conductor >= 0")
        if conductor > 0 and below[:1] != (0,):
            raise ValidationError("0 must be a member")
        if below and below[-1] >= conductor:
            raise ValidationError("members must lie below the conductor")
        if conductor - 1 in below[-1:]:
            raise ValidationError("stored conductor is not minimal")
        self.conductor = conductor
        self.below = below

    def __contains__(self, n: int) -> bool:
        if n >= self.conductor:
            return True
        i = bisect_left(self.below, n)
        return i < len(self.below) and self.below[i] == n

    def members(self, stop: int) -> Iterator[int]:
        """Members below stop, ascending."""
        return chain(self.below[:bisect_left(self.below, stop)], range(self.conductor, stop))

    def smallest_positive(self) -> int:
        return self.below[1] if len(self.below) > 1 else max(self.conductor, 1)


def weierstrass_semigroup(q: int, m: int) -> NumericalSemigroup:
    """Level-m members below the conductor by the recursion; the reference for ``rpl.semigroup``.

    The members below c_m are exactly q*s with s in H(m-1) and q*s < c_m:
    the members of H(m-1) below ceil(c_m / q), scaled.  Nothing of size
    c_m is built.
    """
    c = semigroup.conductor(q, m)
    if m == 1:
        return NumericalSemigroup(0, ())
    below = tuple(q * s for s in weierstrass_semigroup(q, m - 1).members(-(-c // q)))
    if c - 1 in below[-1:]:
        raise ComputationError(f"recursion produced the member {c - 1}, so a conductor below {c}")
    return NumericalSemigroup(c, below)


def gap_mismatches(cells: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int, int]]:
    """(q, m, gaps) for each cell whose recursion gap count is not ``semigroup.gap_count``."""
    for q, m in cells:
        s = weierstrass_semigroup(q, m)
        gaps = s.conductor - len(s.below)
        if gaps != semigroup.gap_count(q, m):
            yield q, m, gaps


def _check_gap_genus_full_grid() -> tuple[str, list[str], str]:
    grid = semigroup_grid()
    failures = [f"({q},{m}) gaps {gaps}" for q, m, gaps in gap_mismatches(grid)]
    return "gap_count==genus full grid c_m<=10^6", failures, f"{len(grid)} cells"


def _check_conductor_minimal() -> tuple[str, list[str]]:
    failures: list[str] = []
    for q, m in semigroup_grid():
        if m < 2:
            continue
        s = weierstrass_semigroup(q, m)
        if s.conductor != semigroup.conductor(q, m):
            failures.append(f"({q},{m}) conductor {s.conductor}")
        elif (s.conductor - 1) in s:
            failures.append(f"({q},{m}) conductor not minimal")
        elif s.smallest_positive() != semigroup.smallest_positive(q, m):
            failures.append(f"({q},{m}) smallest {s.smallest_positive()}")
    return "conductor==q^m-q^ceil(m/2) and minimal", failures


def _check_generator_bounds_grid() -> tuple[str, list[str]]:
    """The extreme generators meet their closed forms, so gs may print True."""
    failures: list[str] = []
    for q, m in semigroup_grid():
        if m < 2:
            continue
        ends = [(start + mark.find(1), start + mark.rfind(1))  # a pair per segment, not the marks
                for start, mark in semigroup.generator_marks(q, m) if 1 in mark]
        first, last = ends[0][0], ends[-1][1]
        if first != semigroup.smallest_positive(q, m) or last != semigroup.largest_generator(q, m):
            failures.append(f"({q},{m})")
    for q, m, largest in ((2, 3, 7), (2, 4, 19)):
        if semigroup.largest_generator(q, m) != largest:
            failures.append(f"({q},{m}) expected gamma_last {largest}")
    return "generator_bounds grid m>=2", failures


def _check_additive_closure() -> tuple[str, list[str]]:
    failures: list[str] = []
    for q, m in semigroup_grid():
        s = weierstrass_semigroup(q, m)
        pool = list(s.members(max(s.conductor, 2)))
        rng = random.Random(777000 + 1000 * q + m)
        for _ in range(CLOSURE_PAIRS):
            a = rng.choice(pool)
            b = rng.choice(pool)
            if (a + b) not in s:
                failures.append(f"({q},{m}) {a}+{b}")
                break
    return f"additive_closure x{CLOSURE_PAIRS}", failures


def _regenerate(gens: tuple[int, ...], span: int) -> int:
    reach = 1
    mask = (1 << span) - 1
    changed = True
    while changed:
        changed = False
        for g in gens:
            grown = (reach | (reach << g)) & mask
            if grown != reach:
                reach = grown
                changed = True
    return reach


def minimal_generators(q: int, m: int) -> Iterator[int]:
    """Minimal generating set of the level-m semigroup, ascending.

    The numbers that ``semigroup.generator_marks`` marks.  Validation happens
    at the call; the returned iterator marks and reads one segment at a time.
    """
    return chain.from_iterable(compress(range(start, start + len(mark)), mark)
                               for start, mark in semigroup.generator_marks(q, m))


def sieve_generators(s: NumericalSemigroup) -> tuple[int, ...]:
    """Minimal generators of any numerical semigroup, by sieving pair sums.

    The reference for ``minimal_generators``.  Every minimal
    generator is below conductor + smallest positive member: anything at
    or past that bound is (member >= conductor) + smallest.  Below the
    bound, a sum of two positive members is necessarily a sum of two
    members below the conductor, because tail + anything already reaches
    the bound.
    """
    c = s.conductor
    if c == 0:
        return (1,)
    limit = c + s.smallest_positive()
    sparse = s.below[1:]
    reach = bytearray(limit)
    for i, a in enumerate(sparse):
        for b in sparse[i:]:
            total = a + b
            if total >= limit:
                break
            reach[total] = 1
    return tuple(n for n in s.members(limit) if n > 0 and not reach[n])


def _check_regeneration() -> tuple[str, list[str]]:
    """Production generators regenerate S on [0, 2c) and equal the sieve."""
    cells = [(2, m) for m in range(2, 13)] + [(3, m) for m in range(2, 8)]
    cells += [(4, m) for m in range(2, 6)] + [(5, m) for m in range(2, 5)]
    failures: list[str] = []
    for q, m in cells:
        s = weierstrass_semigroup(q, m)
        span = 2 * s.conductor
        gens = tuple(minimal_generators(q, m))
        below = sum(1 << n for n in s.below)  # distinct bits, so the sum is their OR
        expected = ((1 << span) - 1) >> s.conductor << s.conductor | below
        if _regenerate(gens, span) != expected or gens != sieve_generators(s):
            failures.append(f"({q},{m})")
    return "regenerate_from_generators [0,2c)", failures


def _check_frozen_semigroups() -> tuple[str, list[str]]:
    s22 = weierstrass_semigroup(2, 2)
    s23 = weierstrass_semigroup(2, 3)
    s24 = weierstrass_semigroup(2, 4)
    checks = (
        semigroup.conductor(2, 3) == 4,
        semigroup.conductor(2, 4) == 12,
        semigroup.conductor(3, 2) == 6,
        list(s22.members(5)) == [0, 2, 3, 4],
        list(s23.members(6)) == [0, 4, 5],
        list(s24.members(13)) == [0, 8, 10, 12],
        semigroup.gap_count(2, 2) == 1,
        semigroup.gap_count(2, 3) == 3,
        semigroup.gap_count(2, 4) == 9,
        tuple(minimal_generators(2, 2)) == (2, 3),
        tuple(minimal_generators(2, 3)) == (4, 5, 6, 7),
        tuple(minimal_generators(2, 4)) == (8, 10, 12, 13, 14, 15, 17, 19),
        tuple(minimal_generators(3, 2)) == (3, 7, 8),
        tuple(minimal_generators(2, 1)) == (1,),
    )
    return "frozen_semigroups", [str(i) for i, ok in enumerate(checks) if not ok]


def check_semigroup(n_max: int = DEFAULT_N_MAX) -> list[CheckResult]:
    return _run("semigroup", _check_gap_genus_full_grid, _check_conductor_minimal,
                _check_generator_bounds_grid, _check_additive_closure, _check_regeneration,
                _check_frozen_semigroups)
