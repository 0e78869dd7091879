"""Reference implementations that ``rpl.gf``'s fields are checked against.

The product multiplies coefficient tuples and reduces them by the modulus,
with no tables and no ``% p`` shortcut. The solution sets of y^k = c and
x^sub_q + x = c, which ``rpl.verify`` finds by scanning the field, come
here from the discrete-log formula and from the tuple product; the
discrete log is read off the powers of a primitive element that the tuple
product finds and multiplies out, never off the field's own tables. All
are slow and plainly correct, so they live here and not in ``rpl``. The
Homma curve counts test every tuple of the product, with no pruning, as
references for the prefix searches in ``rpl.verify``.
"""

from itertools import product
from math import gcd


def digits(ctx, a):
    """Coefficient tuple (c0, ..., c_{e-1}) of the element with index a."""
    out = []
    for _ in range(ctx.e):
        a, d = divmod(a, ctx.p)
        out.append(d)
    return tuple(out)


def tuple_mul(ctx, a, b):
    """a*b by schoolbook multiplication of coefficient tuples mod the modulus."""
    p, e, mod = ctx.p, ctx.e, ctx.modulus
    t = [0] * (2 * e - 1)
    for i, ai in enumerate(digits(ctx, a)):
        if ai:
            for j, bj in enumerate(digits(ctx, b)):
                t[i + j] += ai * bj
    for i in range(2 * e - 2, e - 1, -1):
        c = t[i] % p
        if c:
            for j in range(e):
                t[i - e + j] -= c * mod[j]
    index = 0
    for c in reversed(t[:e]):
        index = index * p + c % p
    return index


def tuple_pow(ctx, a, k):
    """a^k by square and multiply on tuple_mul."""
    result = 1
    while k:
        if k & 1:
            result = tuple_mul(ctx, result, a)
        k >>= 1
        if k:
            a = tuple_mul(ctx, a, a)
    return result


def has_full_order(ctx, a):
    """Whether a has multiplicative order q - 1, by tuple_pow."""
    n = ctx.q - 1
    primes = [r for r in range(2, n + 1) if n % r == 0 and all(r % d for d in range(2, r))]
    return all(tuple_pow(ctx, a, n // r) != 1 for r in primes)


def generator_powers(ctx):
    """[g^0, ..., g^(q-2)] for the smallest g of full order, by tuple_mul."""
    g = next(a for a in range(1, ctx.q) if has_full_order(ctx, a))
    powers = [1]
    for _ in range(ctx.q - 2):
        powers.append(tuple_mul(ctx, powers[-1], g))
    return powers


def power_residues_by_log(powers, c, k):
    """Solutions of y^k = c (k >= 1), ascending, from the discrete log of c
    in the unit group listed by powers (from generator_powers).

    With n = q - 1 and d = gcd(k, n), a nonzero c = g^L has a k-th root
    iff d | L, and then exactly d of them: g^t for t = t0 + j*n/d, where
    t0 solves (k/d) t = L/d mod n/d.
    """
    if not c:
        return [0]
    n = len(powers)
    d = gcd(k, n)
    log_c = powers.index(c)
    if log_c % d:
        return []
    step = n // d
    t0 = log_c // d * pow(k // d, -1, step) % step
    return sorted(powers[t0 + j * step] for j in range(d))


def artin_schreier_fibers(ctx, sub_q):
    """Fibers of x -> x^sub_q + x on F_{sub_q^2} keyed by value, each ascending,
    with x^sub_q from tuple_pow rather than the field's tables."""
    fibers = {}
    for x in ctx.elements():
        fibers.setdefault(ctx.add(tuple_pow(ctx, x, sub_q), x), []).append(x)
    return fibers


def _power_table(ctx):
    """pw[v] = v^(q-1) for every element v."""
    return [ctx.pow(v, ctx.q - 1) for v in ctx.elements()]


def projective_count_by_product(ctx, ell):
    """(affine, infinity) points of the Homma curve in P^ell, by testing every
    normalized (x_1, ..., x_ell, z) against the whole chain of equations."""
    q = ctx.q
    pw = _power_table(ctx)
    rows = [[ctx.sub(pw[ctx.add(v, z)], pw[z]) for v in ctx.elements()] for z in ctx.elements()]
    affine = infinity = 0
    for j in range(ell + 1):
        prefix = (0,) * j + (1,)
        for tail in product(range(q), repeat=ell - j):
            coords = prefix + tail
            row = rows[coords[ell]]
            if all(pw[cur] == row[prev] for prev, cur in zip(coords, coords[1:ell])):
                if coords[ell]:
                    affine += 1
                else:
                    infinity += 1
    return affine, infinity


def infinity_count_by_product(ctx, ell):
    """Normalized (x_1, ..., x_ell) with x_(i+1)^(q-1) = x_i^(q-1) for every i,
    by testing every tuple: the points of the Homma curve at z = 0."""
    pw = _power_table(ctx)
    count = 0
    for j in range(ell):
        prefix = (0,) * j + (1,)
        for tail in product(range(ctx.q), repeat=ell - 1 - j):
            coords = prefix + tail
            count += all(pw[cur] == pw[prev] for prev, cur in zip(coords, coords[1:]))
    return count
