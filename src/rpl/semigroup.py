"""Weierstrass semigroups of the recursive tower, by closed forms.

The semigroup at level m is H(1) = Z>=0 and, for m > 1,

    H(m) = q * H(m-1)  union  { n : n >= c_m },    c_m = q^m - q^ceil(m/2).

No command builds H(m): every number read off it has a closed form.

* Gaps.  Below c_m the members are q * H(m-1), whose gaps all lie below
  q c_(m-1) <= c_m; so the gaps are those of H(m-1) scaled by q plus the
  c_m (q-1)/q numbers below c_m prime to q, and g(m) = g(m-1) + c_m (q-1)/q
  with g(1) = 0.  For any integer q >= 2 that solves to the genus of level
  m (Pellikaan-Stichtenoth-Torres, Finite Fields Appl. 4, 1998).
* The smallest positive member is q * q^(m-2) = q^(m-1), as c_m >= q^(m-1).
* Minimal generators: gens(H(1)) = {1} and, for m > 1,

      gens(H(m)) = q * gens(H(m-1))  union  { n in [c_m, c_m + q^(m-1)) : q does not divide n }.

  Below c_m + q^(m-1) a sum of two positive members has both summands
  below c_m, where every member is a multiple of q; so no n prime to q is
  such a sum, and q*k is one exactly when k is one in H(m-1).  There are
  q^(m-1) of them (maximal embedding dimension), the smallest is q^(m-1),
  and the largest is the top of the top piece, c_m + q^(m-1) - 1: a scaled
  generator q*k has k <= c_(m-1) + q^(m-2) - 1 (k = 1 at level 1), so it
  is at most q c_(m-1) + q^(m-1) - q <= c_m + q^(m-1) - q.

The membership bitmap of H(m) and the pair-sum generator sieve in
``rpl.verify`` are the oracles that certify these forms.  ``generator_marks``
returns the generators as a byte per number, which ``rpl.cli`` writes out as
text without making an int per generator.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from . import PRINT_LIMIT
from .errors import TooLarge, ValidationError

CONDUCTOR_CAP = 10**7


def check_level(q: int, m: int) -> None:
    """Reject q < 2, then m < 1; every module checks a tower level m through this."""
    if q < 2:
        raise ValidationError(f"q must be >= 2, got {q}")
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")


def conductor(q: int, m: int) -> int:
    """Conductor q^m - q^ceil(m/2) of the level-m semigroup."""
    check_level(q, m)
    return q**m - q ** ((m + 1) // 2)


def capped_conductor(q: int, m: int) -> int:
    """The conductor, or TooLarge above CONDUCTOR_CAP, naming q and m if it is unprintable.

    An unprintable conductor is never formed: c_m >= q^(m-1) >= 2^((m-1)(bit_length(q)-1)).
    """
    check_level(q, m)
    if (m - 1) * (q.bit_length() - 1) < PRINT_LIMIT.bit_length():
        c = conductor(q, m)
        if c <= CONDUCTOR_CAP:
            return c
        if c < PRINT_LIMIT:
            raise TooLarge(f"conductor {c} exceeds the bitmap cap {CONDUCTOR_CAP}")
    raise TooLarge(
        f"conductor q^m - q^ceil(m/2) at q = {q}, m = {m} exceeds the bitmap cap {CONDUCTOR_CAP}"
    )


def gap_count(q: int, m: int) -> int:
    """Number of gaps of the level-m semigroup, which is the genus of level m."""
    check_level(q, m)
    if m % 2 == 0:
        r = q ** (m // 2) - 1
        return r * r
    return (q ** ((m + 1) // 2) - 1) * (q ** ((m - 1) // 2) - 1)


def smallest_positive(q: int, m: int) -> int:
    """Smallest positive member q^(m-1), also the smallest minimal generator."""
    check_level(q, m)
    return q ** (m - 1)


def largest_generator(q: int, m: int) -> int:
    """Largest minimal generator: c_m + q^(m-1) - 1 for m >= 2, and 1 at m = 1."""
    c = conductor(q, m)
    return c + q ** (m - 1) - 1 if m > 1 else 1


def generator_marks(q: int, m: int) -> tuple[int, bytearray]:
    """(low, mark) with mark[n - low] set exactly at the minimal generators n.

    low = q^(m-1) is the smallest generator and mark has c_m bytes (one at
    level 1), so it spans every generator.  Unrolled, the recursion gives
    disjoint pieces: piece j < m-1 is
    q^j * { n in [c_(m-j), c_(m-j) + q^(m-j-1)) : q does not divide n },
    exactly the generators divisible by q^j and not by q^(j+1), and the
    last piece is q^(m-1) itself.  Each piece is marked by two strided
    slice assignments over [q^(m-1), c_m + q^(m-1)): set its multiples of
    q^j, then clear its multiples of q^(j+1).  Taken with j ascending, a
    clear never removes an earlier piece's generator, since those are not
    divisible by q^(j+1).  Validates and checks the cap before marking.
    """
    c = capped_conductor(q, m)
    low = q ** (m - 1)
    mark = bytearray(c or 1)  # level 1 is generated by q^0 = 1
    for j in range(m - 1):
        start = q**j * conductor(q, m - j) - low  # n - low, both multiples of q^(j+1)
        stop = start + low
        for step, byte in ((q**j, b"\x01"), (q ** (j + 1), b"\x00")):
            mark[start:stop:step] = byte * len(range(start, stop, step))
    # q^(m-1) last: for q = 2 it is the start of piece m-2, which clears it
    mark[0] = 1
    return low, mark


def minimal_generators(q: int, m: int) -> Iterator[int]:
    """Minimal generating set of the level-m semigroup, ascending.

    The numbers that ``generator_marks`` marks.  Validation and marking
    happen at the call; the returned iterator only reads the marks.
    """
    low, mark = generator_marks(q, m)
    return itertools.compress(range(low, low + len(mark)), mark)
