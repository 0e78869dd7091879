"""Weierstrass semigroups of the recursive tower, as explicit bitmaps.

The semigroup at level m is H(1) = Z>=0 and, for m > 1,

    H(m) = q * H(m-1)  union  { n : n >= c_m },    c_m = q^m - q^ceil(m/2).

A NumericalSemigroup stores the membership window below its conductor as
bytes plus the rule "everything at or above the conductor is a member",
which is exact for any cofinite submonoid of Z>=0.  Gap counts are read
from that window.  Minimal generating sets come from the same recursion,
never from the window: gens(H(1)) = {1} and, for m > 1,

    gens(H(m)) = q * gens(H(m-1))  union  { n in [c_m, c_m + q^(m-1)) : q does not divide n }.

Below c_m + q^(m-1) a sum of two positive members has both summands
below c_m, where every member is a multiple of q; so no n prime to q is
such a sum, and q*k is one exactly when k is one in H(m-1).  The set has
q^(m-1) elements (maximal embedding dimension).  The generic pair-sum
sieve that this replaces is the oracle in rpl.verify.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Iterator

from .errors import ComputationError, TooLarge, ValidationError

CONDUCTOR_CAP = 10**7


@dataclass(frozen=True)
class NumericalSemigroup:
    """Cofinite additive submonoid of Z>=0.

    window[n] is 1 exactly when n < conductor is a member; every
    n >= conductor is a member.  The stored conductor is always minimal
    (conductor - 1 is a gap whenever conductor > 0).
    """

    conductor: int
    window: bytes

    def __post_init__(self) -> None:
        if self.conductor < 0 or len(self.window) != self.conductor:
            raise ValueError("window length must equal the conductor")
        if self.conductor > 0:
            if not self.window[0]:
                raise ValueError("0 must be a member")
            if self.window[self.conductor - 1]:
                raise ValueError("stored conductor is not minimal")

    @classmethod
    def from_window(cls, conductor: int, window: bytes | bytearray) -> "NumericalSemigroup":
        """Build with the minimal conductor, trimming trailing members."""
        c = conductor
        while c > 0 and window[c - 1]:
            c -= 1
        return cls(c, bytes(window[:c]))

    def __contains__(self, n: int) -> bool:
        if n < 0:
            return False
        if n >= self.conductor:
            return True
        return bool(self.window[n])

    def members(self, stop: int) -> Iterator[int]:
        """Members below stop, ascending."""
        w = self.window
        for n in range(min(self.conductor, stop)):
            if w[n]:
                yield n
        yield from range(self.conductor, stop)

    def smallest_positive(self) -> int:
        n = self.window.find(1, 1)
        return n if n > 0 else max(self.conductor, 1)


@dataclass(frozen=True)
class GeneratorSet:
    """Minimal generators of a numerical semigroup, ascending."""

    gens: tuple[int, ...]

    def __post_init__(self) -> None:
        g = self.gens
        if not g:
            raise ValueError("a numerical semigroup needs at least one generator")
        if not (g[0] > 0 and all(map(operator.lt, g, itertools.islice(g, 1, None)))):
            raise ValueError("generators must be positive, strictly increasing")


def conductor(q: int, m: int) -> int:
    """Conductor q^m - q^ceil(m/2) of the level-m semigroup."""
    if q < 2:
        raise ValidationError(f"q must be >= 2, got {q}")
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    return q**m - q ** ((m + 1) // 2)


def _capped_conductor(q: int, m: int) -> int:
    c = conductor(q, m)  # validates q, m
    if c > CONDUCTOR_CAP:
        raise TooLarge(f"conductor {c} exceeds the bitmap cap {CONDUCTOR_CAP}")
    return c


@functools.lru_cache(maxsize=None)
def weierstrass_semigroup(q: int, m: int) -> NumericalSemigroup:
    """Level-m semigroup by the scale-and-union recursion."""
    c = _capped_conductor(q, m)
    if m == 1:
        return NumericalSemigroup(0, b"")
    prev = weierstrass_semigroup(q, m - 1)
    win = bytearray(c)
    # members below c are exactly q*s with s in H(m-1): fill every q-th
    # slot from the previous window extended by its tail rule
    n_src = (c + q - 1) // q
    src = bytearray(n_src)
    take = min(prev.conductor, n_src)
    src[:take] = prev.window[:take]
    if n_src > prev.conductor:
        src[prev.conductor :] = b"\x01" * (n_src - prev.conductor)
    win[::q] = src
    result = NumericalSemigroup.from_window(c, win)
    if result.conductor != c:
        raise ComputationError(
            f"recursion produced conductor {result.conductor}, expected {c}"
        )
    return result


def gap_count(s: NumericalSemigroup) -> int:
    """Number of gaps; equals the genus for the tower semigroups."""
    return s.window.count(0)


def minimal_generators(q: int, m: int) -> GeneratorSet:
    """Minimal generating set of the level-m semigroup, ascending.

    Unrolled, the recursion gives disjoint pieces: piece j < m-1 is
    q^j * { n in [c_(m-j), c_(m-j) + q^(m-j-1)) : q does not divide n },
    exactly the generators divisible by q^j and not by q^(j+1), and the
    last piece is q^(m-1) itself.  Each piece is marked by two strided
    slice assignments over [q^(m-1), c_m + q^(m-1)): set its multiples of
    q^j, then clear its multiples of q^(j+1).  Taken with j ascending, a
    clear never removes an earlier piece's generator, since those are not
    divisible by q^(j+1).
    """
    c = _capped_conductor(q, m)
    if m == 1:
        return GeneratorSet((1,))
    low = q ** (m - 1)
    mark = bytearray(c)  # mark[n - low] for n in [low, c + low)
    for j in range(m - 1):
        start = q**j * conductor(q, m - j) - low  # n - low, both multiples of q^(j+1)
        stop = start + low
        for step, byte in ((q**j, b"\x01"), (q ** (j + 1), b"\x00")):
            mark[start:stop:step] = byte * len(range(start, stop, step))
    # q^(m-1) last: for q = 2 it is the start of piece m-2, which clears it
    mark[0] = 1
    return GeneratorSet(tuple(itertools.compress(range(low, c + low), mark)))


@dataclass(frozen=True)
class GeneratorBoundReport:
    """Observed extreme generators against the predicted degree bounds."""

    q: int
    m: int
    conductor: int
    gamma_first: int
    gamma_last: int
    smallest_ok: bool  # gamma_first == q^(m-1)
    largest_ok: bool  # gamma_last <= conductor + q^(m-1) - 1


def check_generator_bounds(q: int, m: int) -> GeneratorBoundReport:
    """Compare extreme minimal generators with their closed-form bounds."""
    if m < 2:
        raise ValidationError(f"generator bounds need m >= 2, got m = {m}")
    c = conductor(q, m)
    gens = minimal_generators(q, m).gens
    gamma_first, gamma_last = gens[0], gens[-1]
    return GeneratorBoundReport(
        q=q,
        m=m,
        conductor=c,
        gamma_first=gamma_first,
        gamma_last=gamma_last,
        smallest_ok=gamma_first == q ** (m - 1),
        largest_ok=gamma_last <= c + q ** (m - 1) - 1,
    )
