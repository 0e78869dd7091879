"""Field construction, canonical modulus choice, arithmetic, and the scans
that solve y^k = c and x^q + x = c in verify's level walks."""

import functools
import gc
import itertools
import math
import random
from types import SimpleNamespace

import field_oracles as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpl import PRINT_LIMIT, gf, primes, printable_power, verify
from rpl.errors import ValidationError
from rpl.gf import (
    DivisionByZero,
    _smallest_irreducible,
    _smallest_primitive,
    field_from_order,
    is_prime,
    make_field,
    times_generator,
)
from rpl.primes import (
    DEFAULT_FIELD_CAP,
    FIELD_CAP_ENV,
    factor_prime_power,
    field_cap,
    field_order,
    prime_powers,
)
from rpl.verify import bounds as verify_bounds, gf as verify_gf, gs as verify_gs
from rpl.verify import homma as verify_homma
from rpl.verify.gs import AdmissibilityViolation

# ---------------------------------------------------------------------------
# independent polynomial oracle: trial division over F_p, low-degree-first
# coefficient tuples, used to certify the modulus choice
# ---------------------------------------------------------------------------


def poly_remainder(f, g, p):
    # g must be monic
    assert g[-1] == 1
    r = [c % p for c in f]
    while len(r) >= len(g):
        lead = r[-1]
        if lead:
            shift = len(r) - len(g)
            for i, gc in enumerate(g):
                r[shift + i] = (r[shift + i] - lead * gc) % p
        r.pop()
    return r


def irreducible_by_trial_division(f, p):
    e = len(f) - 1
    assert e >= 1 and f[-1] == 1
    for d in range(1, e // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = list(tail) + [1]
            if all(c == 0 for c in poly_remainder(f, divisor, p)):
                return False
    return True


def smallest_irreducible_by_scan(p, e):
    for tail in itertools.product(range(p), repeat=e):
        candidate = list(tail) + [1]
        if irreducible_by_trial_division(candidate, p):
            return tuple(candidate)
    raise AssertionError("no irreducible polynomial found")


# ---------------------------------------------------------------------------
# primes and prime powers
# ---------------------------------------------------------------------------


def test_is_prime_matches_trial_division():
    for n in range(-3, 300):
        expected = n >= 2 and all(n % d for d in range(2, n))
        assert is_prime(n) == expected


def test_factor_prime_power_examples():
    assert factor_prime_power(2) == (2, 1)
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(125) == (5, 3)
    assert factor_prime_power(1024) == (2, 10)


@pytest.mark.parametrize("q", [0, 1, 6, 12, 100, 1000])
def test_factor_prime_power_rejects_composites(q):
    with pytest.raises(ValidationError, match=f"^q = {q} is not a prime power$"):
        factor_prime_power(q)


def test_prime_powers_32_frozen():
    assert [q for q, _, _ in prime_powers(32)] == [
        2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
    ]


@functools.lru_cache(maxsize=1)
def _smallest_factors(n):
    """spf[m] = the smallest prime factor of m, for 2 <= m <= n: one unsegmented sieve."""
    spf = list(range(n + 1))
    for d in range(2, math.isqrt(n) + 1):
        if spf[d] == d:
            for m in range(d * d, n + 1, d):
                if spf[m] == m:
                    spf[m] = d
    return spf


def _oracle_prime_powers(n, spf):
    """(q, p, e) for each prime power q <= n, read off the smallest-factor table."""
    out = []
    for q in range(2, n + 1):
        p, rest, e = spf[q], q, 0
        while rest % p == 0:
            rest, e = rest // p, e + 1
        if rest == 1:
            out.append((q, p, e))
    return out


def _segment_edge_limits():
    # below SEGMENT^2 the sieve cuts [2, n] into segments of SEGMENT numbers
    # from 2; p^2 is where the base prime p starts to mark, and a power the
    # merge must place between two primes
    small_primes = [p for p in range(2, 1000) if is_prime(p)]
    limits = set()
    for edge in (2 + primes.SEGMENT, 2 + 2 * primes.SEGMENT):
        below = max(p for p in small_primes if p * p < edge)
        above = min(p for p in small_primes if p * p >= edge)
        limits |= {edge - 1, edge, edge + 1}
        limits |= {p * p + d for p in (below, above) for d in (-1, 0, 1)}
    return sorted(limits)


ORACLE_LIMIT = 3 * primes.SEGMENT + 1000  # the last limit spans four segments


@pytest.mark.parametrize("n", [*range(0, 65), 200, *_segment_edge_limits(), ORACLE_LIMIT])
def test_prime_powers_match_an_unsegmented_sieve(n):
    spf = _smallest_factors(ORACLE_LIMIT)
    stream = list(prime_powers(n))
    qs = [q for q, _, _ in stream]
    assert qs == sorted(set(qs))  # strictly ascending
    assert all(p**e == q and e >= 1 and spf[p] == p for q, p, e in stream)
    assert stream == _oracle_prime_powers(n, spf)  # complete


# ---------------------------------------------------------------------------
# canonical modulus: lexicographically smallest irreducible, constant
# coefficient compared first
# ---------------------------------------------------------------------------

FROZEN_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 0, 1, 1),
    (2, 4): (1, 0, 0, 1, 1),
    (2, 6): (1, 0, 0, 0, 0, 1, 1),
    (3, 2): (1, 0, 1),
    (5, 2): (1, 1, 1),
}


def test_modulus_frozen_values():
    for (p, e), modulus in FROZEN_MODULI.items():
        assert make_field(p, e).modulus == modulus


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_modulus_is_lex_smallest_irreducible(p, e):
    modulus = make_field(p, e).modulus
    assert modulus == smallest_irreducible_by_scan(p, e)
    assert irreducible_by_trial_division(list(modulus), p)


def test_weak_order_criterion_trap_rejected():
    # x^6 + x^5 + x = x(x^2+x+1)(x^3+x+1): reducible and squarefree with
    # factor degrees all dividing 6, so it satisfies x^(2^6) = x mod f;
    # only a proper-divisor check rejects it
    trap = (0, 1, 0, 0, 0, 1, 1)
    assert not irreducible_by_trial_division(list(trap), 2)
    assert make_field(2, 6).modulus != trap


def test_degree_one_modulus_is_x():
    # a prime field multiplies with % p and pow: no primitive element, no tables
    for p in (2, 3, 5, 101):
        ctx = make_field(p, 1)
        assert ctx.modulus == (0, 1)
        assert not any(hasattr(ctx, name) for name in ("generator", "exp", "log"))


def test_make_field_validation():
    with pytest.raises(ValidationError, match="^p = 4 is not prime$"):
        make_field(4, 2)
    with pytest.raises(ValidationError, match="^p = 1 is not prime$"):
        make_field(1, 3)
    with pytest.raises(ValueError):
        make_field(2, 0)


def test_field_from_order_proves_no_prime_again(monkeypatch):
    # factor_prime_power has proved p prime, so building F_q never calls is_prime
    small = make_field(3, 2)
    with pytest.raises(ValidationError) as unpatched:
        field_from_order(2**21)

    def refuse(n):
        raise AssertionError(f"field_from_order called is_prime({n})")

    monkeypatch.setattr(gf, "is_prime", refuse)
    again = field_from_order(9)
    assert (again.q, again.modulus, again.generator, list(again.exp), list(again.log)) == (
        small.q, small.modulus, small.generator, list(small.exp), list(small.log))
    large = field_from_order(2**20)
    assert (large.q, large.modulus) == (2**20, _smallest_irreducible(2, 20))
    with pytest.raises(ValidationError) as patched:
        field_from_order(2**21)
    assert str(patched.value) == str(unpatched.value)


# ---------------------------------------------------------------------------
# element encoding and arithmetic
# ---------------------------------------------------------------------------


def test_element_index_roundtrip():
    for q in (2, 4, 8, 9, 25, 27):
        ctx = field_from_order(q)
        listed = list(ctx.elements())
        assert len(listed) == q
        assert listed == [ctx.element(i) for i in range(q)] == list(range(q))


def test_exhaustive_tables_small_fields():
    for q in (2, 3, 4, 5, 7, 8, 9):
        ctx = field_from_order(q)
        els = list(ctx.elements())
        for a in els:
            assert ctx.add(a, ctx.zero) == a
            assert ctx.mul(a, ctx.one) == a
            assert ctx.add(a, ctx.neg(a)) == ctx.zero
            assert ctx.pow(a, q) == a
            if a != ctx.zero:
                assert ctx.mul(a, ctx.inv(a)) == ctx.one
                assert ctx.pow(a, q - 1) == ctx.one
            for b in els:
                assert ctx.add(a, b) == ctx.add(b, a)
                assert ctx.mul(a, b) == ctx.mul(b, a)
                assert ctx.sub(a, b) == ctx.add(a, ctx.neg(b))


@pytest.mark.parametrize("q", [2, 8, 16, 7, 13, 9, 25, 27, 81, 125, 243])  # XOR, % p, Zech's logarithm
def test_additive_law_matches_digit_oracle(q):
    # all pairs include b = -a, where 1 + g^k = 0 and Zech's logarithm has no value
    # the axiom checks only test add, sub and neg against each other
    ctx = field_from_order(q)
    p = ctx.p
    for a in ctx.elements():
        da = oracle.digits(ctx, a)
        assert oracle.digits(ctx, ctx.neg(a)) == tuple(-x % p for x in da)
        for b in ctx.elements():
            db = oracle.digits(ctx, b)
            assert oracle.digits(ctx, ctx.add(a, b)) == tuple((x + y) % p for x, y in zip(da, db))
            assert oracle.digits(ctx, ctx.sub(a, b)) == tuple((x - y) % p for x, y in zip(da, db))


@pytest.mark.parametrize("q", [4096, 2187, 3125, 3721])
def test_times_generator_matches_tuple_product(q):
    ctx = field_from_order(q)
    times_g = times_generator(ctx)
    assert [times_g(v) for v in ctx.elements()] == [
        oracle.tuple_mul(ctx, ctx.generator, v) for v in ctx.elements()
    ]


def test_times_generator_widest_lane():
    # p = 1021, e = 2 is the widest lane under the 2^20 cap: a lane sums up to
    # e(p-1)^2 = 2,080,800, which needs 21 bits; a stand-in context skips the
    # q - 1 steps of building F_{1021^2}
    p, e = 1021, 2
    modulus = _smallest_irreducible(p, e)
    ctx = SimpleNamespace(p=p, e=e, q=p**e, modulus=modulus, generator=_smallest_primitive(p, modulus))
    times_g = times_generator(ctx)
    rng = random.Random(1021)
    for v in [ctx.q - 1, ctx.q - p, p - 1] + [rng.randrange(ctx.q) for _ in range(2000)]:
        assert times_g(v) == oracle.tuple_mul(ctx, ctx.generator, v)


@pytest.mark.parametrize("q", [7, 16, 27])  # % p, XOR, Zech's logarithm
def test_dropped_field_is_freed_without_the_cycle_collector(q):
    # the closures a field binds hold p or its tables, never the field itself
    gc.collect()
    gc.disable()
    try:
        ctx = field_from_order(q)
        del ctx
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_axiom_triples_are_the_choices_draws():
    # field_axioms draws floor(random() * q) from its seeded Random, which is
    # what random.choices(range(q), k) computes; the triples are read back
    # from the products a*(b+c), a*b, a*c that each one makes in Z/q
    for q, _, _ in prime_powers(verify_gf.AXIOM_FIELD_LIMIT):
        products = []
        ring = SimpleNamespace(
            q=q, zero=0, add=lambda a, b, q=q: (a + b) % q, neg=lambda a, q=q: -a % q,
            mul=lambda a, b, q=q: products.append((a, b)) or a * b % q,
        )
        assert verify_gf._additive_sample_ok(ring)
        triples = [(a, b, c) for (a, b), (_, c) in zip(products[1::3], products[2::3])]
        draws = random.Random(1000003 * q + 12345).choices(range(q), k=3 * verify_gf.AXIOM_TRIPLES)
        assert triples == list(zip(*[iter(draws)] * 3))


def test_quadratic_extension_table():
    # F_4 = F_2[x]/(x^2+x+1); w = x satisfies w^2 = w + 1 and w^3 = 1
    ctx = make_field(2, 2)
    w = ctx.element(2)
    w2 = ctx.mul(w, w)
    assert w2 == ctx.add(w, ctx.one)
    assert ctx.mul(w, w2) == ctx.one


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([3, 4, 5, 7, 8, 9, 16, 25, 27, 49]), st.data())
def test_axioms_hold_on_random_triples(q, data):
    ctx = field_from_order(q)
    a = ctx.element(data.draw(st.integers(0, q - 1)))
    b = ctx.element(data.draw(st.integers(0, q - 1)))
    c = ctx.element(data.draw(st.integers(0, q - 1)))
    assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([4, 8, 9, 27, 25]), st.data())
def test_frobenius_is_additive(q, data):
    ctx = field_from_order(q)
    p = ctx.p
    a = ctx.element(data.draw(st.integers(0, q - 1)))
    b = ctx.element(data.draw(st.integers(0, q - 1)))
    assert ctx.pow(ctx.add(a, b), p) == ctx.add(ctx.pow(a, p), ctx.pow(b, p))


def test_division_errors():
    for q in (7, 9, 4):  # % p and pow; tables at odd p; tables at p = 2
        ctx = field_from_order(q)
        for a in (ctx.zero, ctx.one, q - 1):
            with pytest.raises(DivisionByZero, match=rf"^zero has no inverse in F_{q}$"):
                ctx.div(a, ctx.zero)
            with pytest.raises(ValueError, match="^exponent must be non-negative$"):
                ctx.pow(a, -1)
        with pytest.raises(DivisionByZero, match=rf"^zero has no inverse in F_{q}$"):
            ctx.inv(ctx.zero)
        assert ctx.pow(ctx.zero, 0) == ctx.one
        assert all(ctx.pow(ctx.zero, k) == ctx.zero for k in (1, 2, q - 1, q, 5 * q))


def test_division_by_zero_is_zero_division_error():
    ctx = make_field(2, 2)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(ctx.zero)


@pytest.mark.parametrize("q", [q for q, _, _ in prime_powers(64)])
def test_tables_match_polynomial_product_exhaustive(q):
    ctx = field_from_order(q)
    for a in ctx.elements():
        for b in ctx.elements():
            assert ctx.mul(a, b) == oracle.tuple_mul(ctx, a, b)
        for k in (0, 1, 2, 3, q - 2, q - 1, q, 2 * q + 5):
            assert ctx.pow(a, k) == oracle.tuple_pow(ctx, a, k)
        if a:
            assert ctx.inv(a) == oracle.tuple_pow(ctx, a, q - 2)
            assert ctx.div(ctx.one, a) == ctx.inv(a)


def test_tables_match_polynomial_product_sampled_q65536():
    ctx = make_field(2, 16)
    rng = random.Random(65536)
    for _ in range(2000):
        a, b = rng.randrange(ctx.q), rng.randrange(ctx.q)
        assert ctx.mul(a, b) == oracle.tuple_mul(ctx, a, b)
        assert ctx.div(a, b or 1) == ctx.mul(a, ctx.inv(b or 1))
    for _ in range(100):
        a, k = rng.randrange(1, ctx.q), rng.randrange(1 << 20)
        assert ctx.inv(a) == oracle.tuple_pow(ctx, a, ctx.q - 2)
        assert ctx.pow(a, k) == oracle.tuple_pow(ctx, a, k)


@pytest.mark.parametrize("p,e,generator", [(3, 2, 4), (2, 16, 6)])
def test_primitive_search_where_x_is_not_primitive(p, e, generator):
    # the canonical modulus is x^2 + 1 for F_9, so x has order 4; for
    # F_{2^16} x also generates a proper subgroup
    ctx = make_field(p, e)
    assert not oracle.has_full_order(ctx, ctx.element(p))
    assert ctx.generator == generator
    assert oracle.has_full_order(ctx, generator)
    assert not any(oracle.has_full_order(ctx, a) for a in range(1, generator))
    n = ctx.q - 1
    assert sorted(ctx.exp[:n]) == list(range(1, ctx.q))
    assert list(ctx.exp[n:]) == list(ctx.exp[:n])
    assert all(ctx.log[ctx.exp[i]] == i for i in range(n))


# ---------------------------------------------------------------------------
# field-size cap
# ---------------------------------------------------------------------------


def test_default_cap(monkeypatch):
    monkeypatch.delenv(FIELD_CAP_ENV, raising=False)
    assert field_cap() == DEFAULT_FIELD_CAP
    message = rf"^q = 2\^21 = {2**21} exceeds the enumeration cap {DEFAULT_FIELD_CAP}$"
    with pytest.raises(ValidationError, match=message):
        make_field(2, 21)


# 2^14285 and 3^9013 have 4301 digits, one more than str() of an int prints
# by default; 2^14285 is ruled out by its bit length, 3^9013 only once formed
@pytest.mark.parametrize("p,e", [(2, 14285), (2, 20000), (3, 9013)])
def test_cap_names_an_unprintable_order_by_its_exponent(monkeypatch, p, e):
    monkeypatch.delenv(FIELD_CAP_ENV, raising=False)
    message = rf"^q = {p}\^{e} exceeds the enumeration cap {DEFAULT_FIELD_CAP}$"
    with pytest.raises(ValidationError, match=message):
        make_field(p, e)
    with pytest.raises(ValidationError, match=message):
        field_order(p, e)


@pytest.mark.parametrize("p,e", [(2, 14284), (3, 9012)])
def test_cap_prints_the_largest_printable_order(p, e):
    with pytest.raises(ValidationError) as exc:
        make_field(p, e)
    assert str(exc.value) == f"q = {p}^{e} = {p**e} exceeds the enumeration cap {DEFAULT_FIELD_CAP}"


# base: its largest printable exponent, and the largest its bit length lets
# printable_power form; exponents 1 past each are unprintable
PRINTABLE_EXPONENTS = {2: (14284, 14284), 3: (9012, 14284), 10: (4299, 4761), 11: (4129, 4761),
                       1023: (1428, 1587), 2**20 - 1: (714, 751)}


@pytest.mark.parametrize("base,exp", [
    (base, exp) for base, edges in PRINTABLE_EXPONENTS.items()
    for exp in sorted({0, 1, *edges, *(edge + 1 for edge in edges)})])
def test_printable_power_is_the_power_below_the_limit(base, exp):
    assert printable_power(base, exp) == (base**exp if base**exp < PRINT_LIMIT else None)


def test_printable_power_does_not_form_a_huge_power():
    assert printable_power(2, 10**4000) is None  # 2^(10^4000) would never finish


def test_cap_env_lowers(monkeypatch):
    monkeypatch.setenv(FIELD_CAP_ENV, "100")
    assert field_cap() == 100
    with pytest.raises(ValidationError, match=r"^q = 2\^7 = 128 exceeds the enumeration cap 100$"):
        field_order(2, 7)
    assert field_order(2, 6) == 64
    assert make_field(2, 7).q == 128  # building a field meets only the fixed limit


def test_cap_env_cannot_raise(monkeypatch):
    monkeypatch.setenv(FIELD_CAP_ENV, str(1 << 30))
    assert field_cap() == DEFAULT_FIELD_CAP


@pytest.mark.parametrize("raw", ["banana", "", "1", "0", "-5", "2.5"])
def test_cap_env_malformed_or_tiny_ignored(raw, monkeypatch):
    monkeypatch.setenv(FIELD_CAP_ENV, raw)
    assert field_cap() == DEFAULT_FIELD_CAP


# ---------------------------------------------------------------------------
# y^k = c and x^sub_q + x = c, solved as verify's level walks solve them: by
# scanning the field against a table of the left side
# ---------------------------------------------------------------------------


def _power_table(ctx, k):
    return [ctx.pow(y, k) for y in ctx.elements()]


def _trace_table(ctx, sub_q):
    return [ctx.add(ctx.pow(x, sub_q), x) for x in ctx.elements()]


def test_power_residue_cube_structure_f3():
    squares = _power_table(field_from_order(3), 2)
    assert verify._solutions(squares, 0) == [0]
    assert verify._solutions(squares, 1) == [1, 2]
    assert verify._solutions(squares, 2) == []


def test_power_residue_squares_f7():
    ctx = field_from_order(7)
    squares = {ctx.mul(a, a) for a in ctx.elements() if a != ctx.zero}
    assert squares == {1, 2, 4}
    table = _power_table(ctx, 2)
    for c in range(1, 7):
        assert len(verify._solutions(table, c)) == (2 if c in squares else 0)


def test_power_residue_k_one_is_identity():
    ctx = field_from_order(9)
    table = _power_table(ctx, 1)
    for a in ctx.elements():
        assert verify._solutions(table, a) == [a]


def test_artin_schreier_fibers_f4():
    # w = 2 and w^2 = 3 are the roots of x^2 + x + 1 in F_4
    trace = _trace_table(field_from_order(4), 2)
    assert verify._solutions(trace, 0) == [0, 1]
    assert verify._solutions(trace, 1) == [2, 3]
    assert verify._solutions(trace, 2) == []
    assert verify._solutions(trace, 3) == []


def test_artin_schreier_image_is_subfield_sized():
    for sub_q in (2, 3, 5):
        ctx = field_from_order(sub_q * sub_q)
        trace = _trace_table(ctx, sub_q)
        nonempty = sum(1 for c in ctx.elements() if verify._solutions(trace, c))
        assert nonempty == sub_q


@pytest.mark.parametrize("q", [q for q, _, _ in prime_powers(256)])
def test_power_residue_matches_enumeration(q):
    ctx = field_from_order(q)
    powers = oracle.generator_powers(ctx)
    for k in sorted({1, 2, 3, 4, q - 1}):
        table = _power_table(ctx, k)
        for c in ctx.elements():
            assert verify._solutions(table, c) == oracle.power_residues_by_log(powers, c, k)


@pytest.mark.parametrize("sub_q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_artin_schreier_matches_enumeration(sub_q):
    ctx = field_from_order(sub_q * sub_q)
    trace = _trace_table(ctx, sub_q)
    fibers = oracle.artin_schreier_fibers(ctx, sub_q)
    assert len(fibers) == sub_q
    for c in ctx.elements():
        sols = verify._solutions(trace, c)
        assert sols == fibers.get(c, [])
        assert len(sols) in (0, sub_q)


# ---------------------------------------------------------------------------
# the field_axioms certificate rejects corrupt exp/log tables
# ---------------------------------------------------------------------------

CORRUPT_AT = 1000


def _transpose_exp_pair(ctx):
    # swap g^i and g^(i+1) in both copies of exp and in log: the tables stay
    # a consistent bijection, and only the step exp[i+1] = g*exp[i] breaks
    n, i = ctx.q - 1, CORRUPT_AT
    a, b = ctx.exp[i], ctx.exp[i + 1]
    ctx.exp[i] = ctx.exp[n + i] = b
    ctx.exp[i + 1] = ctx.exp[n + i + 1] = a
    ctx.log[a], ctx.log[b] = i + 1, i


def _wrong_log_entry(ctx):
    ctx.log[ctx.exp[CORRUPT_AT]] += 1


def _exp_value_out_of_range(ctx):
    n = ctx.q - 1
    ctx.exp[CORRUPT_AT] = ctx.exp[n + CORRUPT_AT] = ctx.q


def _duplicated_exp_value(ctx):
    # every value stays in 1..q-1, so only log[exp[i]] == i can see it
    n = ctx.q - 1
    ctx.exp[CORRUPT_AT] = ctx.exp[n + CORRUPT_AT] = ctx.exp[CORRUPT_AT + 1]


def _zero_in_exp(ctx):
    n = ctx.q - 1
    ctx.exp[CORRUPT_AT] = ctx.exp[n + CORRUPT_AT] = 0


def _stale_second_copy(ctx):
    n = ctx.q - 1
    ctx.exp[n + CORRUPT_AT] = ctx.exp[CORRUPT_AT + 1]


def _rotated_tables(ctx):
    # exp[i] = g^(i+1) with log to match: every step still multiplies by g,
    # and only exp[0] = 1 breaks
    n = ctx.q - 1
    shifted = ctx.exp[1 : n + 1]
    ctx.exp[:] = shifted + shifted
    for v in range(1, ctx.q):
        ctx.log[v] = (ctx.log[v] - 1) % n


@pytest.mark.parametrize(
    "corrupt",
    [
        _transpose_exp_pair,
        _wrong_log_entry,
        _exp_value_out_of_range,
        _duplicated_exp_value,
        _zero_in_exp,
        _stale_second_copy,
        _rotated_tables,
    ],
)
@pytest.mark.parametrize("q", [4096, 3125])  # p = 2; odd p with e > 1; a prime field has no tables
def test_field_axioms_certificate_rejects_corrupt_tables(monkeypatch, q, corrupt):
    good, bad = field_from_order(q), field_from_order(q)
    corrupt(bad)
    assert verify_gf._exp_log_certified(good)
    assert not verify_gf._exp_log_certified(bad)

    monkeypatch.setattr(verify_gf, "prime_powers", lambda n: [(q, bad.p, bad.e)])  # only this field
    monkeypatch.setattr(verify_gf, "make_field", lambda p, e: bad)
    [result] = verify._run("gf", verify_gf._check_field_axioms)
    assert not result.ok
    assert result.detail == f"q={q}"


# ---------------------------------------------------------------------------
# the level walks and fiber checks report a corrupt field as a failure
# ---------------------------------------------------------------------------


def _patch_swapped_field(monkeypatch, q, i):
    """F_q with g^i and g^(i+1) swapped, patched into every verify scope that builds fields.

    The product and the raw power are conjugated by the transposition s of
    g^i and g^(i+1), for the smallest g of full order: mul'(a, b) =
    s(mul(s(a), s(b))) and pow'(a, k) = s(pow(s(a), k)).  When e >= 2 that
    is exactly swapping the pair in exp and log, a consistent bijection
    whose products through the pair go wrong; in F_{sub_q^2} at i = 1,
    x^sub_q + x is no longer additive, so its fibers stop having sub_q
    elements each.
    """
    bad = field_from_order(q)
    g = next(a for a in range(1, q) if oracle.has_full_order(bad, a))
    x, y = oracle.tuple_pow(bad, g, i), oracle.tuple_pow(bad, g, i + 1)
    swap = {x: y, y: x}

    def s(a):
        return swap.get(a, a)

    mul, raw_pow = bad.mul, bad._raw_pow
    bad.mul = lambda a, b: s(mul(s(a), s(b)))
    bad._raw_pow = lambda a, k: s(raw_pow(s(a), k))
    real_make = verify_gf.make_field

    def make_field(p, e):
        return bad if p**e == q else real_make(p, e)

    fakes = {"make_field": make_field,
             "field_from_order": lambda n: make_field(*factor_prime_power(n))}
    for module in (verify_bounds, verify_gf, verify_gs, verify_homma):
        for name, fake in fakes.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fake)


@pytest.mark.parametrize("sub_q", [3, 4])
def test_corrupt_field_fails_fiber_checks_by_name(monkeypatch, capsys, sub_q):
    _patch_swapped_field(monkeypatch, sub_q * sub_q, 1)
    [fibers] = verify._run("gf", verify_gf._check_artin_schreier_fibers)
    [split] = verify._run("gs", verify_gs._check_split_closed_form)
    assert (fibers.name, fibers.ok) == ("artin_schreier_fibers q in {2,3,4,5}", False)
    assert fibers.detail.startswith(f"q={sub_q} ")
    assert (split.name, split.ok) == ("split_count==(q-1)q^m (q in {2,3,4}, m in 1..8)", False)
    assert f"({sub_q},2) AdmissibilityViolation" in split.detail
    assert capsys.readouterr().err == ""  # neither check raised


@pytest.mark.parametrize("sub_q", [3, 4])
def test_tower_walk_rejects_a_broken_fiber(monkeypatch, sub_q):
    _patch_swapped_field(monkeypatch, sub_q * sub_q, 1)
    broken = rf"level 2: fiber of size \d+, expected {sub_q}"
    with pytest.raises(AdmissibilityViolation, match=broken):
        list(verify_gs.tower_level_states(sub_q, 3))


# The homma and gs checks that failed on each swapped field while fields
# were cached (70227ea); every other corpus field passed them all.
MASS = "level_mass_conservation grid"
SPLIT = "split_count==(q-1)q^m (q in {2,3,4}, m in 1..8)"
TOWER_MASS = "tower_level_mass (q in {2,3,4})"
START = "admissible_start_count q in {2,3,4,5}"
SWAPPED_FIELD_FAILURES = {
    (4, 0): {MASS, SPLIT, TOWER_MASS},
    (5, 0): {MASS},
    (7, 0): {MASS},
    (8, 0): {MASS},
    (9, 0): {MASS, SPLIT, TOWER_MASS},
    (9, 1): {SPLIT, TOWER_MASS, START},
    (9, 2): {SPLIT, TOWER_MASS, START},
    (9, 3): {SPLIT, TOWER_MASS},
    (9, 4): {SPLIT, TOWER_MASS},
    (9, 5): {SPLIT, TOWER_MASS, START},
    (9, 6): {SPLIT, TOWER_MASS, START},
}


@pytest.fixture(scope="module")
def homma_gs_names():
    """Check names as printed on sound fields; a raising check prints a shorter one."""
    return [r.name for r in verify_homma.check_homma() + verify_gs.check_gs()]


@pytest.mark.parametrize("q,i", [(q, i) for q in (4, 5, 7, 8, 9) for i in range(q - 2)])
def test_swapped_field_corpus_fails_the_same_checks(monkeypatch, capsys, homma_gs_names, q, i):
    _patch_swapped_field(monkeypatch, q, i)
    results = dict(zip(homma_gs_names, verify_homma.check_homma() + verify_gs.check_gs()))
    failed = {name for name, result in results.items() if not result.ok}
    assert SWAPPED_FIELD_FAILURES.get((q, i), set()) <= failed
    if i == 0:
        # x^(q-1) is g, not 1: level 2 already breaks the closed-form fiber sizes
        assert f"({q},2)" in results[MASS].detail
        assert "final mass" not in results[MASS].detail
