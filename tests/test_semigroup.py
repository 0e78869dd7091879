"""Weierstrass semigroup recursion, gaps, and minimal generators."""

import pytest

from rpl.errors import TooLarge, ValidationError
from rpl.gs_tower import genus
from rpl.semigroup import (
    GeneratorSet,
    NumericalSemigroup,
    check_generator_bounds,
    conductor,
    gap_count,
    minimal_generators,
    weierstrass_semigroup,
)
from rpl.verify import semigroup_grid, sieve_generators


def semigroup_by_set_recursion(q, m, window):
    """Independent oracle: the scale-and-union recursion on plain sets,
    truncated to [0, window)."""
    members = set(range(window))
    for level in range(2, m + 1):
        c = q**level - q ** ((level + 1) // 2)
        members = {q * s for s in members if q * s < window}
        members |= set(range(c, window))
    return members


@pytest.mark.parametrize("q,m", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2), (5, 2)])
def test_members_match_set_recursion(q, m):
    s = weierstrass_semigroup(q, m)
    window = 2 * s.conductor + 4
    assert set(s.members(window)) == semigroup_by_set_recursion(q, m, window)


def test_conductor_formula():
    assert conductor(2, 3) == 4
    assert conductor(2, 4) == 12
    assert conductor(3, 2) == 6
    for q in (2, 3, 4, 5):
        for m in range(1, 8):
            assert conductor(q, m) == q**m - q ** ((m + 1) // 2)


def test_level_one_is_all_nonnegative_integers():
    s = weierstrass_semigroup(2, 1)
    assert s.conductor == 0
    assert list(s.members(5)) == [0, 1, 2, 3, 4]
    assert gap_count(s) == 0
    assert -1 not in s


def test_frozen_small_semigroups():
    s22 = weierstrass_semigroup(2, 2)
    assert list(s22.members(6)) == [0, 2, 3, 4, 5]
    assert gap_count(s22) == 1
    s23 = weierstrass_semigroup(2, 3)
    assert list(s23.members(8)) == [0, 4, 5, 6, 7]
    assert gap_count(s23) == 3
    s24 = weierstrass_semigroup(2, 4)
    assert list(s24.members(13)) == [0, 8, 10, 12]
    assert gap_count(s24) == 9
    s32 = weierstrass_semigroup(3, 2)
    assert list(s32.members(9)) == [0, 3, 6, 7, 8]
    assert gap_count(s32) == 4


def test_stored_conductor_is_minimal():
    for q, m in [(2, 2), (2, 5), (3, 3), (4, 2), (5, 3)]:
        s = weierstrass_semigroup(q, m)
        assert s.conductor == conductor(q, m)
        assert (s.conductor - 1) not in s
        assert s.conductor in s


def test_gap_count_equals_genus():
    for q in (2, 3, 4, 5):
        for m in range(1, 7):
            s = weierstrass_semigroup(q, m)
            assert gap_count(s) == genus(q, m)


def test_smallest_positive_member():
    for q in (2, 3, 4):
        for m in range(1, 7):
            assert weierstrass_semigroup(q, m).smallest_positive() == q ** (m - 1)


def test_minimal_generators_frozen():
    assert minimal_generators(2, 2).gens == (2, 3)
    assert minimal_generators(2, 3).gens == (4, 5, 6, 7)
    assert minimal_generators(2, 4).gens == (
        8, 10, 12, 13, 14, 15, 17, 19,
    )
    assert minimal_generators(3, 2).gens == (3, 7, 8)
    assert minimal_generators(2, 1).gens == (1,)


@pytest.mark.parametrize(
    "q,m", [cell for cell in semigroup_grid() if conductor(*cell) <= 3 * 10**5]
)
def test_minimal_generators_match_sieve_oracle(q, m):
    assert minimal_generators(q, m).gens == sieve_generators(weierstrass_semigroup(q, m))


def test_generator_count_is_maximal_embedding_dimension():
    for q, m in semigroup_grid():
        assert len(minimal_generators(q, m).gens) == q ** (m - 1)


def test_generators_not_sums_of_positive_members():
    for q, m in [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)]:
        s = weierstrass_semigroup(q, m)
        gens = minimal_generators(q, m).gens
        positives = [n for n in s.members(max(gens) + 1) if n > 0]
        sums = {a + b for a in positives for b in positives}
        for g in gens:
            assert g in s
            assert g not in sums


def test_generators_regenerate_the_semigroup():
    for q, m in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)]:
        s = weierstrass_semigroup(q, m)
        span = 2 * s.conductor + 2
        gens = minimal_generators(q, m).gens
        reach = {0}
        changed = True
        while changed:
            changed = False
            for base in sorted(reach):
                for g in gens:
                    total = base + g
                    if total < span and total not in reach:
                        reach.add(total)
                        changed = True
        assert reach == set(s.members(span))


def test_generator_bound_reports():
    r23 = check_generator_bounds(2, 3)
    assert (r23.gamma_first, r23.gamma_last) == (4, 7)
    assert r23.smallest_ok and r23.largest_ok
    assert r23.gamma_last == r23.conductor + 2 ** (3 - 1) - 1
    r24 = check_generator_bounds(2, 4)
    assert (r24.gamma_first, r24.gamma_last) == (8, 19)
    assert r24.gamma_last == r24.conductor + 2 ** (4 - 1) - 1
    r32 = check_generator_bounds(3, 2)
    assert (r32.gamma_first, r32.gamma_last) == (3, 8)
    assert r32.smallest_ok and r32.largest_ok


def test_generator_bounds_hold_on_grid():
    for q in (2, 3, 4, 5):
        for m in range(2, 7):
            report = check_generator_bounds(q, m)
            assert report.smallest_ok
            assert report.largest_ok


def test_additive_closure_exhaustive_small():
    for q, m in [(2, 4), (3, 2), (2, 5)]:
        s = weierstrass_semigroup(q, m)
        members = list(s.members(2 * s.conductor))
        for a in members:
            for b in members:
                if a + b < 2 * s.conductor:
                    assert (a + b) in s


def test_validation_and_caps():
    with pytest.raises(ValidationError):
        conductor(1, 3)
    with pytest.raises(ValidationError):
        conductor(2, 0)
    with pytest.raises(ValidationError):
        check_generator_bounds(2, 1)
    with pytest.raises(TooLarge):
        weierstrass_semigroup(2, 24)
    with pytest.raises(ValidationError):
        minimal_generators(1, 3)
    with pytest.raises(TooLarge):
        minimal_generators(2, 24)


def test_semigroup_type_invariants():
    with pytest.raises(ValueError):
        NumericalSemigroup(2, bytes([1, 1]))
    with pytest.raises(ValueError):
        NumericalSemigroup(2, bytes([0, 0]))
    with pytest.raises(ValueError):
        NumericalSemigroup(3, bytes([1, 0]))
    trimmed = NumericalSemigroup.from_window(4, bytes([1, 0, 1, 1]))
    assert trimmed.conductor == 2
    assert trimmed.window == bytes([1, 0])


def test_generator_set_invariants():
    assert GeneratorSet((2, 3)).gens == (2, 3)
    with pytest.raises(ValueError):
        GeneratorSet(())
    with pytest.raises(ValueError):
        GeneratorSet((3, 2))
    with pytest.raises(ValueError):
        GeneratorSet((0, 2))
    with pytest.raises(ValueError):
        GeneratorSet((2, 2, 3))
