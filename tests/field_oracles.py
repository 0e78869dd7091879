"""Reference implementations that the table-driven field is checked against.

The product multiplies coefficient tuples and reduces them by the modulus,
with no tables. The solvers enumerate the whole field. Both are slow and
plainly correct, so they live here and not in ``rpl.gf``. The Homma curve
counts test every tuple of the product, with no pruning, as references for
the prefix searches in ``rpl.verify``.
"""

from itertools import product


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


def solve_power_residue(ctx, c, k):
    """Solution set of y^k = c, by enumerating the field."""
    return {y for y in ctx.elements() if ctx.pow(y, k) == c}


def solve_artin_schreier(ctx, sub_q, c):
    """Solution set of x^sub_q + x = c in F_{sub_q^2}, by enumeration."""
    sols = {x for x in ctx.elements() if ctx.add(ctx.pow(x, sub_q), x) == c}
    assert len(sols) in (0, sub_q)
    return sols


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
