"""Weierstrass semigroup closed forms, the member-tuple oracle, and minimal generators."""

import tracemalloc
from itertools import compress

import pytest

from rpl import cli, semigroup
from rpl.cli import CONDUCTOR_CAP, capped_conductor
from rpl.errors import ValidationError
from rpl.gs_tower import count_split_chains
from rpl.semigroup import (
    conductor,
    gap_count,
    generator_marks,
    largest_generator,
    smallest_positive,
)
from rpl.verify import CheckResult, _run
from rpl.verify import gs as verify_gs, semigroup as verify_semigroup
from rpl.verify.semigroup import (
    NumericalSemigroup,
    minimal_generators,
    semigroup_grid,
    sieve_generators,
    weierstrass_semigroup,
)


def oracle_gaps(s):
    """The gaps of an oracle semigroup: the numbers below its conductor that it lacks."""
    return s.conductor - len(s.below)


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


@pytest.mark.parametrize("q,m", [(2, 1), (2, 2), (2, 4), (3, 3), (5, 2)])  # (2, 1): conductor 0
def test_members_edges_match_plain_loop(q, m):
    s = weierstrass_semigroup(q, m)
    c = s.conductor
    for stop in sorted({0, 1, max(c - 1, 0), c, c + 5}):
        plain = [n for n in range(stop) if n >= c or n in s.below]
        assert list(s.members(stop)) == plain


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
    assert oracle_gaps(s) == 0
    assert -1 not in s


def test_frozen_small_semigroups():
    s22 = weierstrass_semigroup(2, 2)
    assert list(s22.members(6)) == [0, 2, 3, 4, 5]
    assert oracle_gaps(s22) == 1
    s23 = weierstrass_semigroup(2, 3)
    assert list(s23.members(8)) == [0, 4, 5, 6, 7]
    assert oracle_gaps(s23) == 3
    s24 = weierstrass_semigroup(2, 4)
    assert list(s24.members(13)) == [0, 8, 10, 12]
    assert oracle_gaps(s24) == 9
    s32 = weierstrass_semigroup(3, 2)
    assert list(s32.members(9)) == [0, 3, 6, 7, 8]
    assert oracle_gaps(s32) == 4


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
            assert oracle_gaps(s) == gap_count(q, m)


def test_smallest_positive_member():
    for q in (2, 3, 4):
        for m in range(1, 7):
            assert weierstrass_semigroup(q, m).smallest_positive() == q ** (m - 1)
            assert smallest_positive(q, m) == q ** (m - 1)


def test_minimal_generators_frozen():
    assert tuple(minimal_generators(2, 2)) == (2, 3)
    assert tuple(minimal_generators(2, 3)) == (4, 5, 6, 7)
    assert tuple(minimal_generators(2, 4)) == (
        8, 10, 12, 13, 14, 15, 17, 19,
    )
    assert tuple(minimal_generators(3, 2)) == (3, 7, 8)
    assert tuple(minimal_generators(2, 1)) == (1,)


@pytest.mark.parametrize(
    "q,m", [cell for cell in semigroup_grid() if conductor(*cell) <= 3 * 10**5]
)
def test_minimal_generators_match_sieve_oracle(q, m):
    assert tuple(minimal_generators(q, m)) == sieve_generators(weierstrass_semigroup(q, m))


def test_generator_count_is_maximal_embedding_dimension():
    for q, m in semigroup_grid():
        assert len(tuple(minimal_generators(q, m))) == q ** (m - 1)


def test_generators_not_sums_of_positive_members():
    for q, m in [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)]:
        s = weierstrass_semigroup(q, m)
        gens = tuple(minimal_generators(q, m))
        positives = [n for n in s.members(max(gens) + 1) if n > 0]
        sums = {a + b for a in positives for b in positives}
        for g in gens:
            assert g in s
            assert g not in sums


def test_generators_regenerate_the_semigroup():
    for q, m in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)]:
        s = weierstrass_semigroup(q, m)
        span = 2 * s.conductor + 2
        gens = tuple(minimal_generators(q, m))
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


def whole_array_marks(q, m):
    """Independent oracle: (low, mark) with mark[n - low] set exactly at the
    minimal generators n, marked piece by piece in one c_m-byte array."""
    c = capped_conductor(q, m)
    low = q ** (m - 1)
    mark = bytearray(c or 1)  # level 1 is generated by q^0 = 1
    for j in range(m - 1):
        start = q**j * conductor(q, m - j) - low  # n - low, both multiples of q^(j+1)
        stop = start + low
        for step, byte in ((q**j, b"\x01"), (q ** (j + 1), b"\x00")):
            mark[start:stop:step] = byte * len(range(start, stop, step))
    # q^(m-1) last: for q = 2 it is the start of piece m-2, which clears it
    mark[0] = 1
    return low, mark


def check_segments(q, m, size):
    segments = list(generator_marks(q, m))
    starts = [start for start, _ in segments]
    low, expected = whole_array_marks(q, m)
    assert starts[0] == low
    assert all(0 < len(mark) <= size for _, mark in segments)
    assert [start + len(mark) for start, mark in segments[:-1]] == starts[1:]  # contiguous
    assert b"".join(mark for _, mark in segments) == expected


# (2, 1) is level 1; (1000, 2) has low = 1000; (5, 10), (7, 8) and (2, 23) have
# pieces whose step q^j is longer than a segment
@pytest.mark.parametrize("q,m", [*semigroup_grid(), (2, 1), (1000, 2), (5, 10), (7, 8), (2, 23)])
def test_segments_match_a_whole_array(q, m):
    check_segments(q, m, semigroup.SEGMENT)


@pytest.mark.parametrize("size,q,m", [(1000, 7, 6), (1000, 2, 16), (7, 3, 6), (7, 2, 9)])
def test_small_segments_match_a_whole_array(monkeypatch, size, q, m):
    # each piece spans many segment edges, and at 7^6 the steps 7^4 and 7^5 pass over segments
    monkeypatch.setattr(semigroup, "SEGMENT", size)
    check_segments(q, m, size)
    # segments that start inside windows of the writer are written as one array would be
    low, mark = whole_array_marks(q, m)
    text = "".join(cli._join_marked(generator_marks(q, m), ";"))
    assert text == ";".join(map(str, compress(range(low, low + len(mark)), mark)))


def extremes(q, m):
    gens = tuple(minimal_generators(q, m))
    return gens[0], gens[-1]


def test_generator_bound_reports():
    g23 = extremes(2, 3)
    assert g23 == (4, 7) == (smallest_positive(2, 3), largest_generator(2, 3))
    assert g23[0] == 2 ** (3 - 1) and g23[1] <= conductor(2, 3) + 2 ** (3 - 1) - 1
    assert g23[1] == conductor(2, 3) + 2 ** (3 - 1) - 1
    g24 = extremes(2, 4)
    assert g24 == (8, 19) == (smallest_positive(2, 4), largest_generator(2, 4))
    assert g24[1] == conductor(2, 4) + 2 ** (4 - 1) - 1
    g32 = extremes(3, 2)
    assert g32 == (3, 8) == (smallest_positive(3, 2), largest_generator(3, 2))
    assert g32[0] == 3 ** (2 - 1) and g32[1] <= conductor(3, 2) + 3 ** (2 - 1) - 1
    assert largest_generator(2, 1) == smallest_positive(2, 1) == 1


def test_generator_bounds_hold_on_grid():
    for q in (2, 3, 4, 5):
        for m in range(2, 7):
            first, last = extremes(q, m)
            assert first == q ** (m - 1) == smallest_positive(q, m)
            assert last <= conductor(q, m) + q ** (m - 1) - 1
            assert last == largest_generator(q, m)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6, 10, 12])
def test_closed_forms_match_bitmap_oracle(q):
    # 6, 10 and 12 are not prime powers: the recursion and its closed forms
    # need only an integer q >= 2
    m = 1
    while conductor(q, m) <= 10**5:
        s = weierstrass_semigroup(q, m)
        assert s.conductor == capped_conductor(q, m)
        assert oracle_gaps(s) == gap_count(q, m)
        assert s.smallest_positive() == smallest_positive(q, m)
        assert sieve_generators(s) == tuple(minimal_generators(q, m))
        assert extremes(q, m) == (smallest_positive(q, m), largest_generator(q, m))
        m += 1


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
        largest_generator(2, 0)
    with pytest.raises(ValidationError):
        minimal_generators(1, 3)
    # the command cap lives in rpl.cli: the closed forms and the oracles work past it
    assert count_split_chains(2, 24) == 2**24
    assert weierstrass_semigroup(2, 24).conductor == 16773120
    assert next(generator_marks(2, 24))[0] == 2**23


@pytest.mark.parametrize(
    "form", [count_split_chains, conductor, gap_count, smallest_positive, largest_generator,
             semigroup.checked_power]
)
def test_closed_forms_refuse_a_level_past_the_print_limit(form):
    # 2^14284 < 10^4300 <= 2^14285: past level 14285 q^(m-1) cannot print at
    # q = 2, and a form refuses the level before it builds q^m, however large m is
    assert form(2, 14285) > 0
    for m in (14286, 15000):
        with pytest.raises(ValidationError) as err:
            form(2, m)
        assert str(err.value) == f"q^(m-1) has more than 4300 digits at q = 2, m = {m}"
    with pytest.raises(ValidationError, match="^m must be >= 1, got 0$"):  # the level rule first
        form(2, 0)


def test_semigroup_type_invariants():
    with pytest.raises(ValueError, match="not minimal"):
        NumericalSemigroup(2, (0, 1))
    with pytest.raises(ValueError, match="0 must be a member"):
        NumericalSemigroup(2, ())
    with pytest.raises(ValueError, match="below the conductor"):
        NumericalSemigroup(3, (0, 3))
    with pytest.raises(ValueError, match="ascend strictly"):
        NumericalSemigroup(5, (0, 3, 2))


def test_cap_boundary():
    assert capped_conductor(2, 23) == 2**23 - 2**12
    assert capped_conductor(10, 7) == 9990000 <= CONDUCTOR_CAP
    for q, m in [(2, 24), (10, 8), (11, 7)]:
        with pytest.raises(ValidationError,
                           match=f"^conductor {conductor(q, m)} exceeds the bitmap cap"):
            capped_conductor(q, m)


def test_cap_message_stays_printable():
    # 10^m - 10^ceil(m/2) has m digits; CPython prints at most 4300
    with pytest.raises(ValidationError, match=f"^conductor {conductor(10, 4300)} exceeds"):
        capped_conductor(10, 4300)
    with pytest.raises(ValidationError, match="^q must be >= 2, got -3$"):
        capped_conductor(-3, 10**7)  # validated before the size bound
    for q, m in [(10, 4301), (2, 100000), (3, 10**7), (2**64, 10**9)]:
        with pytest.raises(ValidationError) as err:
            capped_conductor(q, m)
        assert str(err.value) == (
            f"conductor q^m - q^ceil(m/2) at q = {q}, m = {m} exceeds the bitmap cap {CONDUCTOR_CAP}"
        )


@pytest.mark.parametrize("check", [verify_semigroup.check_semigroup, verify_gs.check_gs])
def test_oracle_holds_no_conductor_sized_array(check):
    # the largest cells, (2, 19) and (3, 12), have conductors near 5 * 10^5
    # but only 511 and 728 members below them
    check()  # the first run fills the field caches
    tracemalloc.start()
    try:
        check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512_000  # a c_m-byte bitmap per cell peaked at 2.1 MB and 1.2 MB


GAP_CHECKS = [f"gs gap_count==genus for ({q},2..8)" for q in (2, 3, 4, 5)]


# the checks that fail when one closed form is off by one, as recorded with
# the c_m-byte bitmap oracle
@pytest.mark.parametrize("module,name,killed", [
    (semigroup, "gap_count", ["gs frozen_tower_values", *GAP_CHECKS, "semigroup frozen_semigroups",
                              "semigroup gap_count==genus full grid c_m<=10^6"]),
    (semigroup, "smallest_positive", ["semigroup conductor==q^m-q^ceil(m/2) and minimal",
                                      "semigroup generator_bounds grid m>=2"]),
], ids=["gap_count", "smallest_positive"])
def test_an_off_by_one_closed_form_fails_the_same_checks(monkeypatch, module, name, killed):
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda q, m: real(q, m) + 1)
    results = verify_gs.check_gs() + verify_semigroup.check_semigroup()
    assert sorted(f"{r.scope} {r.name}" for r in results if not r.ok) == killed


def test_generator_bounds_fail_without_the_last_generator(monkeypatch):
    # the check reads the first and last marked numbers of the segments, so
    # marks that lose their largest generator must fail every cell with m >= 2
    marks = semigroup.generator_marks

    def without_last(q, m):
        segments = list(marks(q, m))
        mark = next(mark for _, mark in reversed(segments) if 1 in mark)
        mark[mark.rfind(1)] = 0
        return iter(segments)

    monkeypatch.setattr(semigroup, "generator_marks", without_last)
    [result] = _run("semigroup", verify_semigroup._check_generator_bounds_grid)
    cells = [f"({q},{m})" for q, m in semigroup_grid() if m >= 2]
    assert result == CheckResult("semigroup", "generator_bounds grid m>=2", False,
                                 "; ".join(cells[:4]) + f"; +{len(cells) - 4} more")
