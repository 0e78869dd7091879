"""Prime powers and the bound on a field's order, without building a field.

``prime_powers(n)`` yields each prime power up to n with its prime and
exponent, ascending, from a segmented sieve of Eratosthenes (Bays and
Hudson, BIT 17, 1977). It holds the base primes up to sqrt(n), one
segment of max(sqrt(n), SEGMENT) bytes and the sorted powers p^e <= n
(e >= 2) of the base primes: O(sqrt(n)) memory. ``capped_order`` checks
an order p^e against the cap it is given: ``gf.FIELD_LIMIT`` for a field
``gf`` builds, and ``rpl.cli.field_cap`` for a command's input.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import compress
from math import isqrt

from . import printable_power
from .errors import ValidationError

SEGMENT = 1 << 15  # least sieve segment, in bytes


def _smallest_factor(n: int) -> int:
    """Smallest prime factor of n >= 2, by trial division."""
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p^e, p prime, or reject q."""
    if q < 2:
        raise ValidationError(f"q = {q} is not a prime power")
    p = _smallest_factor(q)
    e, rest = 0, q
    while rest % p == 0:
        rest //= p
        e += 1
    if rest != 1:
        raise ValidationError(f"q = {q} is not a prime power")
    return p, e


def prime_powers(n: int) -> Iterator[tuple[int, int, int]]:
    """(q, p, e) for every prime power q = p^e <= n, p prime, in ascending q; none for n < 2."""
    if n < 2:
        return
    root = isqrt(n)
    base = [p for p, _, e in prime_powers(root) if e == 1]
    powers = sorted((p**e, p, e) for p in base for e in range(2, n.bit_length()) if p**e <= n)
    i = 0  # powers[i] is the least power not yet yielded
    size = max(root, SEGMENT)
    for lo in range(2, n + 1, size):
        hi = min(lo + size, n + 1)
        prime = bytearray(b"\x01") * (hi - lo)  # prime[k]: is lo + k prime
        for p in base:
            first = max(p * p, -(-lo // p) * p) - lo
            prime[first::p] = bytes(len(range(first, hi - lo, p)))
        for p in compress(range(lo, hi), prime):
            while i < len(powers) and powers[i][0] < p:
                yield powers[i]
                i += 1
            yield p, p, 1
    yield from powers[i:]


def capped_order(p: int, e: int, cap: int) -> int:
    """Order p^e, rejected above cap, naming only p and e if it is unprintable."""
    q = printable_power(p, e)
    if q is None:
        raise ValidationError(f"q = {p}^{e} exceeds the enumeration cap {cap}")
    if q > cap:
        raise ValidationError(f"q = {p}^{e} = {q} exceeds the enumeration cap {cap}")
    return q
