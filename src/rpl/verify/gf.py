"""The gf scope: the fields of ``rpl.gf`` (tables, moduli, unit groups, Frobenius)
and the fibers that the level walks' field scans find.
"""

from __future__ import annotations

import math
import random

from .. import DEFAULT_N_MAX
from ..gf import FieldContext, field_from_order, make_field, times_generator
from ..primes import prime_powers
from . import CheckResult, _run, _solutions

AXIOM_FIELD_LIMIT = 1 << 12
AXIOM_TRIPLES = 1000


def _exp_log_certified(ctx: FieldContext) -> bool:
    """Whether an extension field's exp/log tables make every product the polynomial one.

    With n = q - 1: exp[0] = 1; each exp[i+1] is g*exp[i] by
    gf.times_generator, the map that also builds the tables, linear on the
    polynomial products g*x^j and never reading the tables;
    exp[:n] lies in 1..q-1 and log inverts it, so its n values are distinct
    and form a permutation of 1..q-1 (g has order n and the modulus is
    irreducible); exp[n:] repeats it. Then exp[i] = g^i and log[g^i] = i
    for every i < n, so mul, inv, div and pow agree with the polynomial
    product mod the modulus on every pair.
    """
    q = ctx.q
    n = q - 1
    exp, log = ctx.exp, ctx.log
    head = exp[:n]
    # the range check comes first, so no later lookup can leave the tables
    if len(exp) != 2 * n or len(log) != q or min(head) < 1 or max(head) >= q:
        return False
    if exp[0] != 1 or exp[n:] != head or [log[v] for v in head] != list(range(n)):
        return False
    return list(map(times_generator(ctx), head)) == exp[1 : n + 1].tolist()


def _additive_sample_ok(ctx: FieldContext) -> bool:
    """Additive identities and distributivity on AXIOM_TRIPLES seeded triples."""
    q = ctx.q
    rand = random.Random(1000003 * q + 12345).random  # choices(range(q), k) draws floor(rand() * q)
    draws = iter([math.floor(rand() * q) for _ in range(3 * AXIOM_TRIPLES)])
    add, mul, neg, zero = ctx.add, ctx.mul, ctx.neg, ctx.zero
    for a, b, c in zip(draws, draws, draws):
        ab, bc = add(a, b), add(b, c)
        if not (
            add(ab, c) == add(a, bc)
            and ab == add(b, a)
            and mul(a, bc) == add(mul(a, b), mul(a, c))
            and add(a, zero) == a
            and add(a, neg(a)) == zero
        ):
            return False
    return True


def _check_field_axioms() -> tuple[str, list[str], str]:
    """Every field q <= 4096: the tables (e >= 2 only) by certificate, the sum by sample."""
    fields = list(prime_powers(AXIOM_FIELD_LIMIT))
    failures: list[str] = []
    for q, p, e in fields:
        ctx = make_field(p, e)
        if not ((ctx.e == 1 or _exp_log_certified(ctx)) and _additive_sample_ok(ctx)):
            failures.append(f"q={q}")
    name = f"field_axioms q<={AXIOM_FIELD_LIMIT} x{AXIOM_TRIPLES}"
    return name, failures, f"{len(fields)} fields"


def _check_canonical_moduli() -> tuple[str, list[str]]:
    expected = {
        (2, 2): (1, 1, 1),
        (3, 1): (0, 1),
        (2, 3): (1, 0, 1, 1),
        (2, 4): (1, 0, 0, 1, 1),
        (5, 2): (1, 1, 1),
        (3, 2): (1, 0, 1),
        (2, 6): (1, 0, 0, 0, 0, 1, 1),
    }
    failures = [
        f"({p},{e})={make_field(p, e).modulus}"
        for (p, e), mod in sorted(expected.items())
        if make_field(p, e).modulus != mod
    ]
    return "canonical_moduli", failures


def _check_unit_group() -> tuple[str, list[str]]:
    failures: list[str] = []
    for q, p, e in prime_powers(256):
        ctx = make_field(p, e)
        for a in ctx.elements():
            if a == ctx.zero:
                continue
            if ctx.pow(a, q - 1) != ctx.one:
                failures.append(f"q={q}")
                break
    return "unit_group_order q<=256", failures


def _check_artin_schreier_fibers() -> tuple[str, list[str]]:
    failures: list[str] = []
    for sub_q in (2, 3, 4, 5):
        ctx = field_from_order(sub_q * sub_q)
        trace = [ctx.add(ctx.pow(x, sub_q), x) for x in ctx.elements()]
        nonempty = 0
        mass = 0
        for c in ctx.elements():
            sols = _solutions(trace, c)
            if sols and len(sols) != sub_q:
                failures.append(f"q={sub_q} fiber {len(sols)}")
            nonempty += bool(sols)
            mass += len(sols)
        if nonempty != sub_q or mass != sub_q * sub_q:
            failures.append(f"q={sub_q} image {nonempty} mass {mass}")
    return "artin_schreier_fibers q in {2,3,4,5}", failures


def _check_power_residue_structure() -> tuple[str, list[str]]:
    failures: list[str] = []
    for q in (3, 4, 5, 7, 8, 9):
        ctx = field_from_order(q)
        for k in (1, 2, 3, 4):
            d = math.gcd(k, q - 1)
            powers = [ctx.pow(y, k) for y in ctx.elements()]
            hit = 0
            for c in ctx.elements():
                sols = _solutions(powers, c)
                if c == ctx.zero:
                    if sols != [ctx.zero]:
                        failures.append(f"q={q} k={k} c=0")
                elif len(sols) not in (0, d):
                    failures.append(f"q={q} k={k} fiber {len(sols)}")
                else:
                    hit += bool(sols)
            if hit != (q - 1) // d:
                failures.append(f"q={q} k={k} image {hit}")
    return "power_residue_structure", failures


def _check_frobenius() -> tuple[str, list[str]]:
    failures: list[str] = []
    for q in (4, 8, 9, 16, 25, 27, 32):
        ctx = field_from_order(q)
        p = ctx.p
        rng = random.Random(9001 * q + 7)
        for _ in range(200):
            a = ctx.element(rng.randrange(q))
            b = ctx.element(rng.randrange(q))
            if ctx.pow(ctx.add(a, b), p) != ctx.add(ctx.pow(a, p), ctx.pow(b, p)):
                failures.append(f"q={q}")
                break
    return "frobenius_additivity", failures


def check_gf(n_max: int = DEFAULT_N_MAX) -> list[CheckResult]:
    return _run("gf", _check_field_axioms, _check_canonical_moduli, _check_unit_group,
                _check_artin_schreier_fibers, _check_power_residue_structure, _check_frobenius)
