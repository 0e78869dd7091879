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

The members of H(m) below c_m, as an ascending tuple, and the pair-sum
generator sieve in ``rpl.verify`` are the oracles that certify these forms.
``generator_marks`` returns the generators as a byte per number, marked one
segment of at most SEGMENT numbers at a time, never in one c_m-byte array.
"""

from __future__ import annotations

from collections.abc import Iterator

from . import PRINT_LIMIT, printable_power
from .errors import ValidationError

# The generators are marked a segment at a time, so the cap bounds the time
# a command takes, not its memory; the "bitmap cap" messages keep their text.
# Time is one pass over c_m marks plus the q^(m-1) generators written: a fresh
# semigroup --q 2 --m 23 (c_m = 8,384,512; 36 MB of text) takes 0.13-0.18 s per
# format (medians of 5 runs on a 2-vCPU Intel Xeon, Python 3.11.7)
CONDUCTOR_CAP = 10**7
SEGMENT = 65_000  # numbers per mark segment


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
    """The conductor, rejected above CONDUCTOR_CAP, naming q and m if it is unprintable.

    An unprintable conductor is never formed: c_m >= q^(m-1), which must print first.
    """
    check_level(q, m)
    if printable_power(q, m - 1) is not None:
        c = conductor(q, m)
        if c <= CONDUCTOR_CAP:
            return c
        if c < PRINT_LIMIT:
            raise ValidationError(f"conductor {c} exceeds the bitmap cap {CONDUCTOR_CAP}")
    raise ValidationError(
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


def generator_marks(q: int, m: int) -> Iterator[tuple[int, bytearray]]:
    """Lazy segments (start, mark): mark[n - start] is set exactly at the minimal generators n.

    With low = q^(m-1) the smallest generator, they cover [low, low + c_m)
    (low + 1 at level 1), each at most SEGMENT numbers long: the first
    starts at low and each later one where the one before it ended.
    Unrolled, the recursion gives disjoint pieces: piece j < m-1 is
    q^j * { n in [c_(m-j), c_(m-j) + q^(m-j-1)) : q does not divide n },
    exactly the generators divisible by q^j and not by q^(j+1), and the
    last piece is q^(m-1) itself.  In each segment, each piece is marked by
    two strided slice assignments over its part of
    [q^j c_(m-j), q^j c_(m-j) + q^(m-1)): set its multiples of q^j, then
    clear its multiples of q^(j+1).  Taken with j ascending, a clear never
    removes an earlier piece's generator, since those are not divisible by
    q^(j+1).  Validates and checks the cap at the call, before any marking.
    """
    c = capped_conductor(q, m)
    low = q ** (m - 1)
    return _marked_segments(q, m, low, low + (c or 1))  # level 1 is generated by q^0 = 1


def _marked_segments(q: int, m: int, low: int, stop: int) -> Iterator[tuple[int, bytearray]]:
    # piece j spans [q^j c_(m-j), q^j c_(m-j) + low); both ends are multiples
    # of q^(j+1), so a segment's multiples of q^j are those of the piece
    pieces = [(q**j * conductor(q, m - j), q**j) for j in range(m - 1)]
    for start in range(low, stop, SEGMENT):
        end = min(start + SEGMENT, stop)
        mark = bytearray(end - start)
        for first, power in pieces:
            lo, hi = max(first, start), min(first + low, end)
            if lo < hi:
                for step, byte in ((power, b"\x01"), (power * q, b"\x00")):
                    a = -(-lo // step) * step - start
                    mark[a:hi - start:step] = byte * len(range(a, hi - start, step))
        if start == low:
            # q^(m-1) last: for q = 2 it is the start of piece m-2, which clears it
            mark[0] = 1
        yield start, mark
