"""Prime powers and the cap on a command's field order, without building a field.

``prime_powers(n)`` yields each prime power up to n with its prime and
exponent, ascending, from a segmented sieve of Eratosthenes (Bays and
Hudson, BIT 17, 1977). It holds the base primes up to sqrt(n), one
segment of max(sqrt(n), SEGMENT) bytes and the sorted powers p^e <= n
(e >= 2) of the base primes: O(sqrt(n)) memory. A command's field order
is capped at 2^20; the ``RPL_MAX_FIELD`` environment variable may lower
(never raise) the cap on command inputs, which ``field_order`` checks.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from itertools import compress
from math import isqrt

from . import printable_power
from .errors import ValidationError

DEFAULT_FIELD_CAP = 1 << 20
FIELD_CAP_ENV = "RPL_MAX_FIELD"
SEGMENT = 1 << 15  # least sieve segment, in bytes


def field_cap() -> int:
    """Cap on the field order of a command's input; the env override can only lower it."""
    raw = os.environ.get(FIELD_CAP_ENV)
    if raw is None:
        return DEFAULT_FIELD_CAP
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_FIELD_CAP
    if value < 2:  # a cap below the smallest field is ignored
        return DEFAULT_FIELD_CAP
    return min(value, DEFAULT_FIELD_CAP)


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


def field_order(p: int, e: int) -> int:
    """Order p^e of a command's field under the input cap, validated without building it;
    p and e come from ``factor_prime_power``, which has proved p prime and e >= 1."""
    return capped_order(p, e, field_cap())
