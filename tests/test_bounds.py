"""Bound formulas, limit checks, constant tables, and the quartic count."""

import time
from fractions import Fraction
from math import isqrt

import parity
import pytest

from rpl import bounds, primes
from rpl.bounds import IHARA_HALF_TABLE, dq_summary, half_ihara_odd_power, nondegenerate_coefficient
from rpl.errors import ValidationError
from rpl.gf import field_from_order
from rpl.primes import prime_powers
from rpl.verify.bounds import (
    CONVERGENCE_Q,
    NotConverged,
    count_exceptional_quartic,
    drinfeld_vladut_upper,
    projective_plane_points,
    sziklai_bound,
    upper_limit_check,
    weil_bound,
)
from rpl.verify.gs import points_per_degree_limit


def test_weil_bound_frozen():
    assert weil_bound(4, 1) == 9
    assert weil_bound(2, 0) == 3
    assert weil_bound(2, 3) == 11


def test_weil_bound_floor_of_surd():
    # isqrt(4 g^2 q) must floor 2g*sqrt(q) exactly
    for q in (2, 3, 5, 7):
        for g in range(0, 8):
            bound = weil_bound(q, g)
            target = q + 1 + 2 * g * q**0.5
            assert bound <= target < bound + 1


def test_sziklai_bound():
    assert sziklai_bound(4, 4) == 13
    assert sziklai_bound(3, 1) == 1
    assert sziklai_bound(5, 10) == 46
    with pytest.raises(ValidationError):
        sziklai_bound(4, 0)


def test_coefficient_frozen_values():
    assert nondegenerate_coefficient(4, 2) == Fraction(7, 2)
    assert nondegenerate_coefficient(2, 2) == Fraction(7, 4)
    assert nondegenerate_coefficient(3, 3) == Fraction(20, 9)


def test_coefficient_formula_direct():
    for q in (2, 3, 4, 5, 9):
        for n in (2, 3, 5, 10):
            expected = Fraction(
                (q - 1) * (q ** (n + 1) - 1), q * (q**n - 1) - n * (q - 1)
            )
            assert nondegenerate_coefficient(q, n) == expected


def test_coefficient_validation():
    with pytest.raises(ValidationError):
        nondegenerate_coefficient(3, 1)
    for q in (0, 1, 6):
        with pytest.raises(ValidationError, match=f"^q = {q} is not a prime power$"):
            nondegenerate_coefficient(q, 2)


def test_coefficient_decreases_to_limit():
    for q in (2, 3, 4):
        values = [nondegenerate_coefficient(q, n) for n in range(2, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(q - 1 < v < q for v in values)


def test_upper_limit_check_converges():
    report = upper_limit_check(3, 60, Fraction(1, 10**9))
    assert report.n0 <= 60
    assert report.final_gap < Fraction(1, 10**9)
    tail = nondegenerate_coefficient(3, report.n0) - 2
    assert tail < Fraction(1, 10**9)
    report2 = upper_limit_check(2, 60, Fraction(1, 10**9))
    assert nondegenerate_coefficient(2, report2.n0) - 1 < Fraction(1, 10**9)


def test_upper_limit_check_not_converged():
    with pytest.raises(NotConverged):
        upper_limit_check(5, 2, Fraction(1, 10**12))


def downward_scan(q, n_max, eps):
    """Reference for upper_limit_check: (n0, final gap), n0 None if n_max is outside.

    Walks down from n_max while |coefficient - (q-1)| < eps, assuming
    nothing about the order of the gaps.
    """
    n0 = None
    for n in range(n_max, 1, -1):
        if abs(nondegenerate_coefficient(q, n) - (q - 1)) < eps:
            n0 = n
        else:
            break
    return n0, nondegenerate_coefficient(q, n_max) - (q - 1)


@pytest.mark.parametrize("n_max", [2, 3, 10, 35, 60, 200])
def test_upper_limit_check_matches_downward_scan(n_max):
    for q in CONVERGENCE_Q:
        for eps in (Fraction(1, 10**9), Fraction(1, 1000), Fraction(1)):
            n0, final_gap = downward_scan(q, n_max, eps)
            if n0 is None:
                with pytest.raises(NotConverged):
                    upper_limit_check(q, n_max, eps)
                continue
            report = upper_limit_check(q, n_max, eps)
            assert (report.n0, report.final_gap) == (n0, final_gap), (q, eps)


def test_upper_limit_check_time_budget():
    # the scan stops at the first n inside the window, so a deep n_max
    # costs one more coefficient, not a walk down from n_max
    start = time.perf_counter()
    reports = [upper_limit_check(q, 4000, Fraction(1, 10**9)) for q in CONVERGENCE_Q]
    assert time.perf_counter() - start < 0.1
    assert all(report.n0 < 40 for report in reports)


def test_upper_limit_n0_is_first_qualifying_index():
    report = upper_limit_check(2, 60, Fraction(1, 10**9))
    eps = Fraction(1, 10**9)
    assert nondegenerate_coefficient(2, report.n0) - 1 < eps
    if report.n0 > 2:
        assert nondegenerate_coefficient(2, report.n0 - 1) - 1 >= eps


def test_projective_plane_has_21_points_over_f4():
    ctx = field_from_order(4)
    points = projective_plane_points(ctx)
    assert len(points) == 21
    assert len(set(points)) == 21


def test_exceptional_quartic_count():
    count = count_exceptional_quartic()
    assert count == 14
    assert count > sziklai_bound(4, 4)


def test_ihara_half_table_frozen():
    table = IHARA_HALF_TABLE.values()
    assert [entry.q for entry in table] == [3, 4, 5, 7, 8, 11, 13, 17, 19, 23, 29, 31]
    printed = {entry.q: entry.printed for entry in table}
    assert printed[3] == "0.2464"
    assert printed[4] == "0.5"
    assert printed[8] == "0.75"
    assert printed[23] == "0.9230"
    for entry in table:
        assert entry.half_lower == Fraction(entry.printed)
        assert entry.reference


def test_odd_power_half_bound():
    # p^(2m+1): half of 2/(1/(p^m - 1) + 1/(p^(m+1) - 1))
    assert half_ihara_odd_power(2, 3) == Fraction(3, 4)  # q = 8
    assert half_ihara_odd_power(2, 5) == Fraction(21, 10)  # q = 32
    assert half_ihara_odd_power(3, 3) == Fraction(Fraction(2 * 8, 2 + 8))  # q = 27
    assert half_ihara_odd_power(2, 2) is None  # q = 4
    assert half_ihara_odd_power(2, 1) is None  # q = 2
    assert half_ihara_odd_power(3, 2) is None  # q = 9


def test_drinfeld_vladut_upper():
    assert drinfeld_vladut_upper(4).is_square and drinfeld_vladut_upper(4).exact == 1
    assert drinfeld_vladut_upper(9).exact == 2
    assert drinfeld_vladut_upper(16).exact == 3
    surd = drinfeld_vladut_upper(2)
    assert not surd.is_square
    assert surd.radicand == 2
    cover = surd.rational_upper + 1
    assert cover * cover >= 2
    assert (cover - Fraction(1, 10**5)) ** 2 < 2


def test_dq_summary_q9():
    summary = dq_summary(9)
    assert summary.records[0].value == 8
    assert summary.best_lower == Fraction(3, 2)
    names = {rec.name for rec in summary.records}
    assert "square-tower" in names


def test_dq_summary_q4():
    summary = dq_summary(4)
    values = {rec.name: rec.value for rec in summary.records}
    assert values["nondegenerate-limit"] == 3
    assert values["explicit-family"] == 1
    assert values["square-tower"] == Fraction(2, 3)
    assert values["half-ihara-table"] == Fraction(1, 2)
    assert summary.best_lower == 1


def test_dq_summary_q2_has_no_lower_bound():
    summary = dq_summary(2)
    assert summary.records[0].value == 1
    assert summary.best_lower is None
    assert all(rec.direction == "upper" for rec in summary.records)


def test_dq_summary_q32_uses_odd_power_bound():
    summary = dq_summary(32)
    assert summary.best_lower == Fraction(21, 10)


def test_dq_summary_follows_the_rules_for_every_q():
    # each rule written out on its own, for every prime power q <= 10^4,
    # found here by trial division
    table_qs = (3, 4, 5, 7, 8, 11, 13, 17, 19, 23, 29, 31)
    walked = 0
    for q in range(2, 10**4 + 1):
        p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
        e, rest = 0, q
        while rest % p == 0:
            rest, e = rest // p, e + 1
        if rest != 1:
            continue
        expected = [("nondegenerate-limit", Fraction(q - 1))]
        if q > 2:
            expected.append(("explicit-family", Fraction(1)))
        if e % 2 == 0:
            r = isqrt(q)
            expected.append(("square-tower", Fraction(r * (r - 1), r + 1)))
        if q in table_qs:
            expected.append(("half-ihara-table", Fraction(IHARA_HALF_TABLE[q].printed)))
        if e % 2 == 1 and e >= 3:
            a, b = p ** (e // 2) - 1, p ** (e // 2 + 1) - 1
            expected.append(("half-ihara-odd-power", Fraction(a * b, a + b)))
        summary = dq_summary(q)
        assert summary.q == q
        assert [(rec.name, rec.value) for rec in summary.records] == expected, q
        assert [rec.direction for rec in summary.records] == ["upper"] + ["lower"] * (
            len(expected) - 1), q
        lower = [value for _, value in expected[1:]]
        assert summary.best_lower == (max(lower) if lower else None), q
        walked += 1
    assert walked == 1280  # 1229 primes and 51 higher powers


def test_dq_summary_square_matches_tower_limit():
    for r in (2, 3, 4, 5, 8, 9):
        summary = dq_summary(r * r)
        record = next(rec for rec in summary.records if rec.name == "square-tower")
        assert record.value == points_per_degree_limit(r)


def test_dq_summary_factors_q_once(monkeypatch):
    # the odd-power record reuses the summary's (p, e) instead of factoring again
    calls = []
    factor = bounds.factor_prime_power
    monkeypatch.setattr(bounds, "factor_prime_power", lambda q: calls.append(q) or factor(q))
    qs = [q for q, _, _ in prime_powers(300)]
    for q in qs:
        dq_summary(q)
    assert calls == qs


def test_no_table_row_factors_q(monkeypatch):
    # each row takes its (p, e) from the sieve that found q
    def factor(*args):
        raise AssertionError("a table row factored q")

    monkeypatch.setattr(bounds, "factor_prime_power", factor)
    monkeypatch.setattr(primes, "_smallest_factor", factor)
    parity.check_row(parity.row("bounds --table 4096 --format csv"))


def test_dq_summary_rejects_non_prime_power():
    with pytest.raises(ValidationError, match="^q = 6 is not a prime power$"):
        dq_summary(6)


@pytest.mark.parametrize("n", [-5, -1, 0, 1])
def test_no_prime_power_below_two(n):
    # an empty table, as at n = 0 and 1, rather than math.isqrt's ValueError
    assert list(prime_powers(n)) == []
    assert list(bounds.dq_table(n)) == []


def test_record_fields_populated():
    for q in (2, 3, 4, 8, 9, 32):
        for rec in dq_summary(q).records:
            assert rec.direction in ("upper", "lower")
            assert rec.source
            assert rec.value.denominator >= 1
