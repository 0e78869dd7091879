"""Point counting for the recursive projective curve family."""

import itertools
import time
import tracemalloc

import pytest

import field_oracles as oracle
from rpl.errors import ValidationError
from rpl.gf import field_from_order
from rpl.homma_family import PointCount, count_total
from rpl.verify import homma as verify_homma
from rpl.verify.homma import (
    BRUTE_FORCE_CAP,
    HOMMA_Q,
    affine_level_states,
    brute_force_projective,
)

CLOSED_FORM_Q = (3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 32, 49, 64)


def affine_count_by_tuple_enumeration(q, ell):
    """Independent oracle: test every tuple in F_q^ell against the chain
    of equations x_{i+1}^(q-1) = (x_i + 1)^(q-1) - 1 directly."""
    ctx = field_from_order(q)
    k = q - 1
    count = 0
    for tup in itertools.product(list(ctx.elements()), repeat=ell):
        for prev, nxt in zip(tup, tup[1:]):
            lhs = ctx.pow(nxt, k)
            rhs = ctx.sub(ctx.pow(ctx.add(prev, ctx.one), k), ctx.one)
            if lhs != rhs:
                break
        else:
            count += 1
    return count


@pytest.mark.parametrize(
    "q,ell", [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2), (7, 2), (9, 2)]
)
def test_affine_count_matches_tuple_enumeration(q, ell):
    assert count_total(q, ell).affine == affine_count_by_tuple_enumeration(q, ell)


def test_frozen_counts():
    assert count_total(3, 3) == PointCount(2, 4, 6)
    assert count_total(4, 2) == PointCount(6, 3, 9)
    assert count_total(3, 2) == PointCount(2, 2, 4)
    assert count_total(5, 2).affine == 4
    assert count_total(9, 5).infinity == 4096
    assert count_total(3, 3).infinity == 4
    assert count_total(4, 2).infinity == 3


def test_degree_closed_form():
    # the points at infinity number the degree (q-1)^(ell-1)
    assert count_total(5, 4).infinity == 64
    assert count_total(3, 2).infinity == 2
    for q in (3, 4, 5, 7):
        for ell in (2, 3, 4):
            assert count_total(q, ell).infinity == (q - 1) ** (ell - 1)


def test_infinity_equals_degree():
    for q in (3, 4, 5, 7, 8, 9):
        for ell in (2, 3, 4):
            assert brute_force_projective(q, ell).infinity == (q - 1) ** (ell - 1)


def test_total_at_least_degree():
    for q in (3, 4, 5, 7, 8, 9):
        for ell in (2, 3, 4, 5):
            assert count_total(q, ell).total >= (q - 1) ** (ell - 1)


def test_brute_force_agrees_with_analytic():
    for q, ell in [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2), (5, 3), (7, 2), (9, 2)]:
        assert brute_force_projective(q, ell) == count_total(q, ell)


def test_brute_force_frozen():
    assert brute_force_projective(3, 2).total == 4
    assert brute_force_projective(4, 2).total == 9


PRODUCT_SCAN_CAP = 10**5
PRODUCT_SCAN_GRID = [
    (q, ell) for q in HOMMA_Q for ell in range(2, 20) if q**ell <= PRODUCT_SCAN_CAP
]


@pytest.mark.parametrize("q,ell", PRODUCT_SCAN_GRID)
def test_prefix_search_matches_product_scan(q, ell):
    ctx = field_from_order(q)
    pruned = brute_force_projective(q, ell)
    assert (pruned.affine, pruned.infinity) == oracle.projective_count_by_product(ctx, ell)
    assert pruned.infinity == oracle.infinity_count_by_product(ctx, ell)


@pytest.mark.parametrize("q,ell", [(3, 14), (4, 11), (5, 10), (9, 7)])
def test_prefix_search_near_the_cap(q, ell):
    # a product scan would take seconds here; the closed form is the reference
    assert q**ell <= BRUTE_FORCE_CAP
    brute = brute_force_projective(q, ell)
    assert brute == count_total(q, ell)
    assert brute.infinity == (q - 1) ** (ell - 1)


def test_prefix_search_holds_no_level():
    # 32,776 points of P^6(F_9); the levels are chained generators, where a
    # list of each level's surviving prefixes peaked at 305 KB
    brute_force_projective(9, 6)  # the first call builds F_9
    tracemalloc.start()
    try:
        brute = brute_force_projective(9, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert brute == count_total(9, 6)
    assert peak < 64_000  # about 5 KB


def test_verify_homma_time_budget():
    start = time.perf_counter()
    results = verify_homma.check_homma()
    elapsed = time.perf_counter() - start
    assert all(r.ok for r in results), [r for r in results if not r.ok]
    assert elapsed < 0.3, f"verify homma took {elapsed:.2f} s"


def test_brute_force_cap():
    assert 3**20 > BRUTE_FORCE_CAP
    with pytest.raises(ValidationError, match=f"^q\\^ell = {3**20} exceeds the brute-force cap"):
        brute_force_projective(3, 20)


def test_validation_errors():
    with pytest.raises(ValidationError, match="^the curve family needs q > 2, got q = 2$"):
        count_total(2, 3)
    with pytest.raises(ValidationError, match="^the curve family needs q > 2, got q = 2$"):
        count_total(2, 2)
    with pytest.raises(ValidationError, match="^ell must be >= 2, got 1$"):
        count_total(3, 1)
    with pytest.raises(ValidationError, match="^q = 6 is not a prime power$"):
        count_total(6, 2)


def test_q_too_small_is_validation_error():
    with pytest.raises(ValidationError, match="^the curve family needs q > 2, got q = 2$"):
        count_total(2, 4)


def test_point_count_invariants():
    pc = PointCount.of(6, 3)
    assert pc.total == 9


def test_level_states_shape_and_mass():
    for q, ell in [(3, 4), (4, 3), (5, 3)]:
        states = list(affine_level_states(q, ell))
        assert len(states) == ell
        assert sum(states[0].values()) == q
        for prev, nxt in zip(states, states[1:]):
            assert sum(nxt.values()) <= q * sum(prev.values())
        assert sum(states[-1].values()) == count_total(q, ell).affine


def test_level_values_satisfy_recursion():
    # every value attained at level i+1 must solve the step equation for
    # some value attained at level i
    q, ell = 4, 4
    ctx = field_from_order(q)
    k = q - 1
    states = list(affine_level_states(q, ell))
    for prev, nxt in zip(states, states[1:]):
        reachable = set()
        for v in prev:
            rhs = ctx.sub(ctx.pow(ctx.add(v, ctx.one), k), ctx.one)
            for y in ctx.elements():
                if ctx.pow(y, k) == rhs:
                    reachable.add(y)
        assert set(nxt) == reachable


@pytest.mark.parametrize("q", CLOSED_FORM_Q)
def test_closed_form_matches_value_propagation(q):
    for ell in range(2, 9):
        *_, last = affine_level_states(q, ell)
        assert count_total(q, ell).affine == sum(last.values())


@pytest.mark.parametrize("q,ell", [(3, 14285), (4, 9013), (256, 1787), (11, 4300)])
def test_largest_printable_degree_is_accepted(q, ell):
    count = count_total(q, ell)
    assert len(str(count.total)) <= 4300
    assert count.infinity == (q - 1) ** (ell - 1)


@pytest.mark.parametrize("q,ell", [(3, 14286), (4, 9014), (256, 1788)])
def test_unprintable_degree_is_too_large(q, ell):
    with pytest.raises(ValidationError, match="has 4301 digits"):
        count_total(q, ell)


@pytest.mark.parametrize("q,ell,digits", [
    (3, 10**40, "more than 4300"),
    (3, 10**1000, "more than 4300"),
    (11, 4301, "4301"),  # 10^4300: the power decides
    (3, 14287, "4301"),  # 2^14286
    (3, 14288, "4301"),  # 2^14287, the largest power of 2 with 4301 digits
    (11, 4302, "more than 4300"),  # 10^4301: the power is formed and compared
    (3, 14289, "more than 4300"),  # 2^14288: the first power of 2 the bit test spares forming
    (3, 10**1000 + 1, "more than 4300"),
], ids=["3-10**40", "3-10**1000", "11-4301", "3-14287", "3-14288", "11-4302", "3-14289",
        "3-10**1000+1"])
def test_unprintable_degree_digit_count_is_exact(q, ell, digits):
    with pytest.raises(ValidationError, match=f" has {digits} digits; "):
        count_total(q, ell)


def test_huge_ell_is_rejected_at_once():
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="has more than 4300 digits"):
        count_total(256, 10**7)
    assert time.perf_counter() - start < 0.5
