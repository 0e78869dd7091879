"""Deterministic finite fields F_{p^e} on integer-encoded elements.

Only ``verify`` and the tests build a field; no command loads this module.
An element is a plain ``int`` in ``[0, q)``.  The base-p digits of the
integer, least significant first, are the coefficients of
``c0 + c1*X + ...`` modulo a fixed monic irreducible polynomial of degree
e over F_p, so 0 is zero and 1 is one.  The modulus is always the
lexicographically smallest monic irreducible, coefficients compared from
the constant term up, so two runs (or two machines) always build the
identical field.

A field fixes its arithmetic once, when it is built.  A prime field is
the integers mod p: ``% p`` for sums and products, ``pow(a, k, p)`` for
powers and inverses.  When e >= 2, products and powers are lookups in
exp/log tables over the smallest primitive element g, built in q - 1 steps
of ``times_generator``, the product by g as a linear map on packed
integers; sums are XOR when p = 2 and lookups through Zech's logarithm
when p is odd (Huber, IEEE Trans. IT 36, 1990).  A field is a plain value,
built anew by every ``make_field`` call with no cache or registry, and
passed explicitly to every operation that needs one.  Its order is at
most FIELD_LIMIT = 2^16, so every table is an ``array("H")``.
"""

from __future__ import annotations

import operator
from array import array
from collections.abc import Callable
from functools import reduce
from itertools import product

from .errors import ValidationError
from .primes import _smallest_factor, capped_order, factor_prime_power

# The largest field any reader builds is F_{2^16}, timed by the benchmark's micro-loop; verify
# stops at F_4096 (AXIOM_FIELD_LIMIT). At this limit exp and log are 16-bit arrays.
FIELD_LIMIT = 1 << 16


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (dense coefficient lists, ascending degree);
# used only to set up a field: its modulus, primitive element and tables
# ---------------------------------------------------------------------------


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    """a*b mod f, with f monic."""
    if not a or not b:
        return []
    t = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                t[i + j] += ai * bj
    e = len(f) - 1
    for i in range(len(t) - 1, e - 1, -1):
        c = t[i] % p
        if c:
            base = i - e
            for j in range(e):
                if f[j]:
                    t[base + j] -= c * f[j]
        t[i] = 0
    return _poly_trim([c % p for c in t[:e]])


def _poly_pow(base: list[int], exp: int, f: list[int], p: int) -> list[int]:
    """base^exp mod f by square and multiply."""
    result = [1]
    while exp:
        if exp & 1:
            result = _poly_mulmod(result, base, f, p)
        exp >>= 1
        if exp:
            base = _poly_mulmod(base, base, f, p)
    return result


def _prime_divisors(n: int) -> list[int]:
    out = []
    while n > 1:
        r = _smallest_factor(n)
        out.append(r)
        while n % r == 0:
            n //= r
    return out


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin's criterion for a monic f of degree e >= 1 over F_p (SIAM J. Comput. 9, 1980).

    f is irreducible iff x^{p^e} == x mod f and, for every prime r | e,
    h = x^{p^{e/r}} - x satisfies h^{p^e - 1} == 1 mod f.  The first
    condition makes f squarefree with factor degrees dividing e, so F_p[x]/(f)
    is a product of fields F_{p^d}, d | e, where h^{p^e - 1} == 1 iff h is a
    unit, i.e. shares no factor with f.  The simpler check that x^{p^d} != x
    mod f for proper divisors d is NOT sufficient (a squarefree product of
    factors with degrees {1,2,3} passes it at e = 6).
    """
    e = len(f) - 1
    if e == 1:
        return True
    if f[0] == 0:  # divisible by x
        return False
    if sum(f) % p == 0:  # 1 is a root
        return False
    xq = _poly_pow([0, 1], p**e, f, p)
    if xq != [0, 1]:
        return False
    for r in _prime_divisors(e):
        g = list(_poly_pow([0, 1], p ** (e // r), f, p))
        while len(g) < 2:
            g.append(0)
        g[1] = (g[1] - 1) % p  # x^{p^{e/r}} - x
        if _poly_pow(g, p**e - 1, f, p) != [1]:
            return False
    return True


def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree e over F_p."""
    for low in product(range(p), repeat=e):
        f = list(low) + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError(f"no irreducible of degree {e} over F_{p}")  # unreachable


def _digits(i: int, p: int, e: int) -> list[int]:
    """Base-p digits of i, least significant first, as a coefficient list."""
    out = []
    for _ in range(e):
        i, d = divmod(i, p)
        out.append(d)
    return out


def _index(coeffs: list[int], p: int) -> int:
    """Element index of a coefficient list: its base-p value."""
    i = 0
    for c in reversed(coeffs):
        i = i * p + c
    return i


def _smallest_primitive(p: int, modulus: tuple[int, ...]) -> int:
    """Smallest element index of multiplicative order q - 1.

    The polynomial x is often not primitive under the canonical modulus:
    x^2 = -1 in F_9, and x has order less than q - 1 in F_{2^8} and
    F_{2^16}.
    """
    e = len(modulus) - 1
    n = p**e - 1
    f = list(modulus)
    cofactors = [n // r for r in _prime_divisors(n)]
    for g in range(1, p**e):
        base = _poly_trim(_digits(g, p, e))
        if all(_poly_pow(base, k, f, p) != [1] for k in cofactors):
            return g
    raise AssertionError(f"F_{p}^{e} has no primitive element")  # unreachable


# ---------------------------------------------------------------------------
# field contexts
# ---------------------------------------------------------------------------


def times_generator(ctx: FieldContext) -> Callable[[int], int]:
    """v -> g*v for the primitive element g of ctx (e >= 2), as an F_p-linear map.

    Each column g*x^j is a polynomial product, packed into lanes of w bits
    (one bit for p = 2, where the sum is XOR).  Tables of column sums over
    v's low and high digits give g*v as one integer sum, whose lanes are
    read back mod p.  It reads only ctx's modulus and generator.
    """
    p, e = ctx.p, ctx.e
    f, g_digits = list(ctx.modulus), _digits(ctx.generator, p, e)
    w = 1 if p == 2 else (e * (p - 1) ** 2).bit_length()  # a lane holds e products of two digits
    cols = [_index(_poly_mulmod([0] * j + [1], g_digits, f, p), 1 << w) for j in range(e)]
    plus, m = operator.xor if p == 2 else operator.add, p ** (e // 2)
    low = [reduce(plus, map(operator.mul, _digits(lo, p, e), cols)) for lo in range(m)]
    high = [reduce(plus, map(operator.mul, _digits(hi, p, e), cols)) for hi in range(0, ctx.q, m)]
    if p == 2:
        return lambda v: low[v % m] ^ high[v // m]
    mask, places = (1 << w) - 1, [p**i for i in range(e)]

    def times_g(v: int) -> int:
        s, out = low[v % m] + high[v // m], 0
        for place in places:
            out += (s & mask) % p * place
            s >>= w
        return out

    return times_g


def _exp_log_tables(ctx: FieldContext) -> tuple[array, array]:
    """exp[i] = g^i for 0 <= i < 2(q-1) and its inverse log, for e >= 2."""
    q, n = ctx.q, ctx.q - 1
    times_g = times_generator(ctx)
    exp = array("H", [0]) * (2 * n)
    log = array("H", [0]) * q
    v = 1
    for i in range(n):
        exp[i] = v
        log[v] = i
        v = times_g(v)
    exp[n:] = exp[:n]
    return exp, log


def _zech_sum(exp: array, log: array, p: int) -> tuple[Callable, Callable, Callable]:
    """add, sub and neg for odd p by Zech's logarithm zech[k] = log(1 + g^k).

    a + b = a*(1 + b/a) = exp[log a + zech[log b - log a]], where a negative
    index wraps mod n = q - 1.  1 + g^k differs from g^k in the constant
    digit only, and is 0 at k = n/2 (g^k = -1), which zech marks with -1.
    """
    h = len(log) // 2  # n/2, as q is odd
    zech = array("i", [log[v - v % p + (v + 1) % p] for v in exp[: 2 * h]])
    zech[h] = -1

    def add(a: int, b: int) -> int:
        if a and b:
            la = log[a]
            z = zech[log[b] - la]
            return exp[la + z] if z >= 0 else 0
        return a or b

    neg = lambda a: exp[log[a] + h] if a else 0  # noqa: E731
    return add, lambda a, b: add(a, neg(b)), neg


class FieldContext:
    """Arithmetic for F_{p^e} on integer-encoded elements.

    Element i has the base-p digits of i as coefficients, constant term
    first.  ``__init__`` binds the sum, the product and the raw power:
    ``% p`` and ``pow(a, k, p)`` in a prime field, which has no
    ``generator``, ``exp`` or ``log``; else XOR or ``_zech_sum`` and lookups,
    where ``exp[i]`` is g^i for the primitive element ``generator``, stored
    for 0 <= i < 2(q-1) so that a sum of two logs needs no reduction, and
    ``log[a]`` inverts it on nonzero elements.
    """

    __slots__ = ("p", "e", "q", "modulus", "generator", "exp", "log",
                 "add", "sub", "neg", "mul", "_raw_pow")

    zero = 0
    one = 1

    def __init__(self, p: int, e: int):
        self.p = p
        self.e = e
        self.q = q = capped_order(p, e, FIELD_LIMIT)
        self.modulus = _smallest_irreducible(p, e)
        # the closures hold p or the tables, not self, so a dropped field is freed
        if e == 1:
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.neg = lambda a: -a % p
            self.mul = lambda a, b: a * b % p
            self._raw_pow = lambda a, k: pow(a, k, p)
        else:
            self.generator = _smallest_primitive(p, self.modulus)
            exp, log = self.exp, self.log = _exp_log_tables(self)
            n = q - 1
            self.add, self.sub, self.neg = (  # -a = a when p = 2
                (operator.xor, operator.xor, operator.pos) if p == 2 else _zech_sum(exp, log, p))
            self.mul = lambda a, b: exp[log[a] + log[b]] if a and b else 0
            self._raw_pow = lambda a, k: exp[log[a] * k % n] if a else (0 if k else 1)

    # -- enumeration --------------------------------------------------

    def element(self, i: int) -> int:
        if not 0 <= i < self.q:
            raise ValidationError(f"element index {i} out of range for q = {self.q}")
        return i

    def elements(self) -> range:
        return range(self.q)

    # -- arithmetic over the bound product and raw power ----------------

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            raise ValidationError("exponent must be non-negative")
        return self._raw_pow(a, k)

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError(f"zero has no inverse in F_{self.q}")
        return self._raw_pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))


def is_prime(n: int) -> bool:
    return n >= 2 and _smallest_factor(n) == n


def make_field(p: int, e: int) -> FieldContext:
    """Build F_{p^e} with the lexicographically smallest irreducible modulus."""
    if not is_prime(p):
        raise ValidationError(f"p = {p} is not prime")
    if e < 1:
        raise ValidationError(f"extension degree must be >= 1, got {e}")
    return FieldContext(p, e)


def field_from_order(q: int) -> FieldContext:
    """Build F_q from its order; factor_prime_power has proved its prime, so no second check."""
    return FieldContext(*factor_prime_power(q))
