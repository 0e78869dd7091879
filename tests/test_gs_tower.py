"""Split-chain counting and genus data for the recursive tower."""

from fractions import Fraction

import pytest

from rpl import semigroup
from rpl.errors import ValidationError
from rpl.gf import field_from_order
from rpl.gs_tower import count_split_chains
from rpl.semigroup import gap_count
from rpl.verify.gs import points_per_degree_limit, tower_level_states, tower_ratio_sequence


def chains_by_explicit_extension(q, m):
    """Independent oracle: materialize every solution chain.

    Starts from each admissible alpha in F_{q^2} and extends one level
    at a time by scanning the whole field for solutions of
    x^q + x = v^q / (v^(q-1) + 1).
    """
    ctx = field_from_order(q * q)
    els = list(ctx.elements())
    chains = [
        (a,) for a in els if ctx.add(ctx.pow(a, q), a) != ctx.zero
    ]
    for _ in range(m - 1):
        extended = []
        for chain in chains:
            v = chain[-1]
            target = ctx.div(ctx.pow(v, q), ctx.add(ctx.pow(v, q - 1), ctx.one))
            for x in els:
                if ctx.add(ctx.pow(x, q), x) == target:
                    extended.append(chain + (x,))
        chains = extended
    return len(chains)


@pytest.mark.parametrize("q,m", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)])
def test_split_count_matches_explicit_chains(q, m):
    assert count_split_chains(q, m) == chains_by_explicit_extension(q, m)


def test_split_count_frozen():
    assert count_split_chains(2, 2) == 4
    assert count_split_chains(2, 1) == 2
    assert count_split_chains(3, 2) == 18
    assert count_split_chains(2, 4) == 16


def test_split_count_equals_lower_bound_formula():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for m, dist in enumerate(tower_level_states(q, 6), start=1):
            assert count_split_chains(q, m) == sum(dist.values()) == (q - 1) * q**m


def test_lower_bound_frozen():
    assert count_split_chains(2, 2) == 4
    assert count_split_chains(3, 3) == 54
    assert count_split_chains(2, 1) == 2


def test_genus_frozen():
    assert gap_count(2, 2) == 1
    assert gap_count(2, 3) == 3
    assert gap_count(3, 1) == 0
    assert gap_count(2, 4) == 9
    assert gap_count(3, 2) == 4


def test_genus_closed_form():
    for q in (2, 3, 4, 5):
        for m in range(1, 10):
            if m % 2 == 0:
                expected = (q ** (m // 2) - 1) ** 2
            else:
                expected = (q ** ((m + 1) // 2) - 1) * (q ** ((m - 1) // 2) - 1)
            assert gap_count(q, m) == expected


def test_level_states_start_set_and_masses():
    for q in (2, 3):
        ctx = field_from_order(q * q)
        states = list(tower_level_states(q, 5))
        assert len(states) == 5
        start = states[0]
        assert sum(start.values()) == q * q - q
        assert all(mult == 1 for mult in start.values())
        for a in start:
            assert ctx.add(ctx.pow(a, q), a) != ctx.zero
        for level, dist in enumerate(states, start=1):
            assert sum(dist.values()) == (q * q - q) * q ** (level - 1)


def test_ratio_sequence_starts_at_level_two():
    # the level-1 term would divide by c_1 + q^0 - 1 = 0, so it is omitted
    assert tower_ratio_sequence(2, 1) == []
    seq = tower_ratio_sequence(2, 4)
    assert len(seq) == 3
    assert seq[0] == Fraction(4, 3)
    assert seq[-1] == Fraction(16, 19)


def test_ratio_sequence_frozen_q2():
    assert tower_ratio_sequence(2, 8) == [
        Fraction(4, 3),
        Fraction(8, 7),
        Fraction(16, 19),
        Fraction(32, 39),
        Fraction(64, 87),
        Fraction(128, 175),
        Fraction(256, 367),
    ]


def test_ratio_limit_values():
    assert points_per_degree_limit(2) == Fraction(2, 3)
    assert points_per_degree_limit(3) == Fraction(3, 2)
    for q in (2, 3, 4, 5, 7):
        assert points_per_degree_limit(q) == Fraction(q * q - q, q + 1)


def test_ratio_sequence_decreasing_and_above_limit():
    for q in (2, 3, 4):
        seq = tower_ratio_sequence(q, 30)
        limit = points_per_degree_limit(q)
        assert all(a > b for a, b in zip(seq, seq[1:]))
        assert all(r > limit for r in seq)


def test_validation():
    with pytest.raises(ValidationError, match="^q = 6 is not a prime power$"):
        count_split_chains(6, 2)
    with pytest.raises(ValidationError, match="^m must be >= 1, got 0$"):
        gap_count(2, 0)
    with pytest.raises(ValidationError):
        count_split_chains(3, 0)
    with pytest.raises(ValidationError):
        tower_ratio_sequence(1, 5)
    with pytest.raises(ValidationError):
        points_per_degree_limit(1)


def test_q_rule_is_stated_by_check_level():
    with pytest.raises(ValidationError) as rule:
        semigroup.check_level(1, 1)
    # m_max = 0 is also bad: q is checked first
    for call in (lambda: points_per_degree_limit(1), lambda: tower_ratio_sequence(1, 0)):
        with pytest.raises(ValidationError) as exc:
            call()
        assert str(exc.value) == str(rule.value) == "q must be >= 2, got 1"
