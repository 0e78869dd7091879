"""Named self-verification checks behind the ``verify`` CLI subcommand.

Every check recomputes an invariant from scratch and compares it against an
independent route (closed form vs enumeration, recursion vs sieve, frozen
values vs live evaluation). Checks are pure and deterministic: fixed grids,
seeded generators, stable ordering.

A check returns its name and its failures, and optionally what it covered;
it passes when it reports no failures. ``_run`` alone turns that into a
verdict: the scope, PASS or FAIL, and a detail that is the first four
failures plus ``+N more``, or else what the check covered. A check that
raises fails under its own name, and the others still run.
"""

from __future__ import annotations

import math
import random
import traceback
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Callable, Iterator
from fractions import Fraction
from functools import partial
from itertools import chain, pairwise, product

from . import DEFAULT_N_MAX, N_MAX_CAP, SCOPES, bounds, gs_tower, homma_family, semigroup
from .errors import AdmissibilityViolation, ComputationError, RplError, TooLarge, ValidationError
from .gf import FieldContext, field_from_order, make_field, times_generator
from .primes import factor_prime_power, prime_powers

HOMMA_Q = (3, 4, 5, 7, 8, 9)
HOMMA_ELL = (2, 3, 4, 5, 6)
BRUTE_FORCE_CAP = 10**7
TOWER_Q = (2, 3, 4)
TOWER_M_MAX = 8
SEMIGROUP_Q = (2, 3, 4, 5)
SEMIGROUP_CONDUCTOR_CAP = 10**6
CONVERGENCE_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
CONVERGENCE_EPS = Fraction(1, 10**9)
RATIO_Q = (2, 3, 4, 5)
RATIO_M = 40
RATIO_TOL = Fraction(1, 1000)
AXIOM_FIELD_LIMIT = 1 << 12
AXIOM_TRIPLES = 1000
CLOSURE_PAIRS = 500


class CheckResult(namedtuple("CheckResult", "scope name ok detail", defaults=("",))):
    """One named check's verdict; detail says what failed, or what was covered."""

    __slots__ = ()


def semigroup_grid() -> list[tuple[int, int]]:
    """All (q, m) with q in SEMIGROUP_Q and conductor(q, m) <= 10^6."""
    grid = []
    for q in SEMIGROUP_Q:
        m = 1
        while semigroup.conductor(q, m) <= SEMIGROUP_CONDUCTOR_CAP:
            grid.append((q, m))
            m += 1
    return grid


def _solutions(table: list[int], c: int) -> list[int]:
    """Every x with table[x] == c, ascending: one scan of the field."""
    return [x for x, v in enumerate(table) if v == c]


def _fail_detail(failures: list[str]) -> str:
    shown = "; ".join(failures[:4])
    if len(failures) > 4:
        shown += f"; +{len(failures) - 4} more"
    return shown


def _run(scope: str, *checks: Callable[[], tuple]) -> list[CheckResult]:
    """Run each check in turn and give its verdict under scope.

    A check returns (name, failures) or (name, failures, covered) and passes
    when failures is empty. The detail is the first four failures plus
    ``+N more``, or else covered. A check that raises fails with the
    exception's type as its one failure, named after the function (and a
    partial's arguments), with the traceback on stderr.
    """
    results = []
    for check in checks:
        try:
            name, failures, *covered = check()
        except Exception as exc:  # one broken check must not end the run
            traceback.print_exc()
            func, args = getattr(check, "func", check), getattr(check, "args", ())  # a partial
            name = " ".join([func.__name__.removeprefix("_check_"), *map(str, args)])
            failures, covered = [type(exc).__name__], []
        detail = _fail_detail(failures) or "".join(covered)
        results.append(CheckResult(scope, name, not failures, detail))
    return results


# ---------------------------------------------------------------------------
# gf scope
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# homma scope
# ---------------------------------------------------------------------------


def homma_grid() -> list[tuple[int, int]]:
    return [(q, ell) for q in HOMMA_Q for ell in HOMMA_ELL]


def affine_level_states(q: int, ell: int) -> Iterator[dict[int, int]]:
    """Distributions of attained x_i values, one per level 1..ell.

    The reference for ``homma_family.count_affine``.  Level 1 is uniform
    over F_q; each later level maps a value v to every y in F_q with
    y^{q-1} = -1 + (v+1)^{q-1}, found by scanning the field, multiplicities
    carried along.  Mass can never grow by more than a factor q per level
    (fibers have at most q elements).
    """
    homma_family._check_family_params(q, ell)
    ctx = field_from_order(q)
    one = ctx.one
    k = q - 1
    pw = [ctx.pow(y, k) for y in ctx.elements()]
    dist = {v: 1 for v in ctx.elements()}
    yield dist
    for _ in range(ell - 1):
        nxt: dict[int, int] = {}
        for v, mult in dist.items():
            rhs = ctx.sub(ctx.pow(ctx.add(v, one), k), one)
            for y in _solutions(pw, rhs):
                nxt[y] = nxt.get(y, 0) + mult
        if sum(nxt.values()) > q * sum(dist.values()):
            raise ComputationError("level mass grew faster than the fiber bound q")
        dist = nxt
        yield dist


def brute_force_projective(q: int, ell: int) -> homma_family.PointCount:
    """Independent oracle: search every normalized point of P^ell(F_q).

    Representatives of (x_1, ..., x_ell, z) have first nonzero coordinate 1.
    Each lead (0,...,0,1) and z are fixed first; see ``_completions`` for
    the search.  Refuses to run past BRUTE_FORCE_CAP.
    """
    homma_family._check_family_params(q, ell)
    if q**ell > BRUTE_FORCE_CAP:
        raise TooLarge(
            f"q^ell = {q**ell} exceeds the brute-force cap {BRUTE_FORCE_CAP}"
        )
    pw, rows = _power_tables(field_from_order(q))
    affine = infinity = 0
    for j in range(ell + 1):
        lead = (0,) * j + (1,)  # when j = ell the lead 1 is z itself
        for z in range(q) if j < ell else (1,):
            found = _completions(lead[:ell], ell, pw, rows[z])
            if z:
                affine += found
            else:
                infinity += found
    return homma_family.PointCount.of(affine, infinity)


def _power_tables(ctx: FieldContext) -> tuple[list[int], list[list[int]]]:
    """Tables pw[v] = v^(q-1); rows[z][v] = (v+z)^(q-1) - z^(q-1)."""
    k = ctx.q - 1
    pw = [ctx.pow(v, k) for v in ctx.elements()]
    rows = [
        [ctx.sub(ctx.pow(ctx.add(v, z), k), pw[z]) for v in ctx.elements()]
        for z in ctx.elements()
    ]
    return pw, rows


def _completions(lead: tuple[int, ...], ell: int, pw: list[int], row: list[int]) -> int:
    """Count x in F_q^ell starting with lead and with pw[x_(t+1)] == row[x_t] for all t.

    The lead's own equations are evaluated too.  Each surviving prefix is
    extended by every x in F_q, and only extensions satisfying the new
    equation survive.  Equation t reads only x_t and x_(t+1), so a prefix
    is carried as its last coordinate, one list entry per prefix.
    """
    prev = lead[0]
    for cur in lead[1:]:
        if pw[cur] != row[prev]:
            return 0
        prev = cur
    elems = range(len(pw))
    prefixes = [prev]
    for _ in range(ell - len(lead)):
        prefixes = [x for v in prefixes for x in elems if pw[x] == row[v]]
    return len(prefixes)


def _check_infinity_closed_form() -> tuple[str, list[str]]:
    failures = [
        f"({q},{ell})"
        for q, ell in homma_grid()
        if homma_family.count_infinity(q, ell) != brute_force_projective(q, ell).infinity
    ]
    return "infinity_count==(q-1)^(ell-1) grid", failures


def _check_brute_force_agreement() -> tuple[str, list[str], str]:
    grid = homma_grid()
    failures: list[str] = []
    for q, ell in grid:
        brute = brute_force_projective(q, ell)
        analytic = homma_family.count_total(q, ell)
        if brute != analytic:
            failures.append(f"({q},{ell}) {brute} vs {analytic}")
    return "brute_force==analytic grid", failures, f"{len(grid)} cells"


def _check_total_at_least_degree() -> tuple[str, list[str]]:
    failures: list[str] = []
    for q, ell in homma_grid():
        total = homma_family.count_total(q, ell).total
        degree = homma_family.curve_degree(q, ell)
        if Fraction(total, degree) < 1:
            failures.append(f"({q},{ell}) {total}<{degree}")
    return "total>=degree grid", failures


def _check_mass_conservation() -> tuple[str, list[str]]:
    """Each level of the affine walk carries the closed-form fiber sizes.

    Every v != -1 has the one successor 0; -1 (the element p - 1) has q - 1
    successors when q is even and none when q is odd.
    """
    failures: list[str] = []
    for q, ell in homma_grid():
        minus_one = factor_prime_power(q)[0] - 1
        fiber = q - 1 if q % 2 == 0 else 0
        states = list(affine_level_states(q, ell))
        for prev, nxt in zip(states, states[1:]):
            outgoing = sum(mult * (fiber if v == minus_one else 1) for v, mult in prev.items())
            if sum(nxt.values()) != outgoing:
                failures.append(f"({q},{ell})")
                break
        else:
            if sum(states[-1].values()) != homma_family.count_affine(q, ell):
                failures.append(f"({q},{ell}) final mass")
    return "level_mass_conservation grid", failures


def _check_frozen_point_counts() -> tuple[str, list[str]]:
    checks = (
        homma_family.count_total(3, 3) == homma_family.PointCount(2, 4, 6),
        homma_family.count_total(4, 2) == homma_family.PointCount(6, 3, 9),
        homma_family.count_total(3, 2) == homma_family.PointCount(2, 2, 4),
        homma_family.count_affine(5, 2) == 4,
        homma_family.count_infinity(9, 5) == 4096,
        homma_family.curve_degree(5, 4) == 64,
        brute_force_projective(3, 4) == homma_family.count_total(3, 4),
    )
    return "frozen_point_counts", [str(i) for i, ok in enumerate(checks) if not ok]


def check_homma(n_max: int = DEFAULT_N_MAX) -> list[CheckResult]:
    return _run("homma", _check_infinity_closed_form, _check_brute_force_agreement,
                _check_total_at_least_degree, _check_mass_conservation, _check_frozen_point_counts)


# ---------------------------------------------------------------------------
# gs scope
# ---------------------------------------------------------------------------


def tower_level_states(q: int, m: int) -> Iterator[dict[int, int]]:
    """Distributions of attained x_m values over F_{q^2}, one per level 1..m.

    The reference for ``gs_tower.count_split_chains``.  Raises
    AdmissibilityViolation if a value with v^(q-1) = -1 is ever reached or
    a fiber does not have exactly q elements; neither can happen when the
    admissible-set invariant holds.
    """
    p, e = factor_prime_power(q)
    semigroup.check_level(q, m)
    ctx = make_field(p, 2 * e)
    zero, one = ctx.zero, ctx.one
    trace = [ctx.add(ctx.pow(x, q), x) for x in ctx.elements()]
    dist = {a: 1 for a in ctx.elements() if trace[a] != zero}
    yield dist
    for level in range(2, m + 1):
        nxt: dict[int, int] = {}
        for v, mult in dist.items():
            den = ctx.add(ctx.pow(v, q - 1), one)
            if den == zero:
                raise AdmissibilityViolation(
                    f"level {level}: reached a value with v^(q-1) = -1"
                )
            rhs = ctx.div(ctx.pow(v, q), den)
            sols = _solutions(trace, rhs)
            if len(sols) != q:
                raise AdmissibilityViolation(
                    f"level {level}: fiber of size {len(sols)}, expected {q}"
                )
            for x in sols:
                nxt[x] = nxt.get(x, 0) + mult
        dist = nxt
        yield dist


def _check_split_closed_form() -> tuple[str, list[str]]:
    """One walk per q to level TOWER_M_MAX; a raise is named after its level."""
    failures: list[str] = []
    for q in TOWER_Q:
        level = 0
        try:
            for level, dist in enumerate(tower_level_states(q, TOWER_M_MAX), start=1):
                mass = sum(dist.values())
                if mass != gs_tower.count_split_chains(q, level):
                    failures.append(f"({q},{level}) {mass}")
        except RplError as exc:
            failures.append(f"({q},{level + 1}) {type(exc).__name__}")
    return "split_count==(q-1)q^m (q in {2,3,4}, m in 1..8)", failures


def _check_tower_level_mass() -> tuple[str, list[str]]:
    failures: list[str] = []
    for q in TOWER_Q:
        ctx = field_from_order(q * q)
        k = q - 1
        for level, dist in enumerate(tower_level_states(q, TOWER_M_MAX), start=1):
            if sum(dist.values()) != (q * q - q) * q ** (level - 1):
                failures.append(f"({q},{level}) mass")
            for v in dist:
                if ctx.add(ctx.pow(v, k), ctx.one) == ctx.zero:
                    failures.append(f"({q},{level}) inadmissible value")
                    break
    return "tower_level_mass (q in {2,3,4})", failures


def _check_admissible_start_count() -> tuple[str, list[str]]:
    failures: list[str] = []
    for q in SEMIGROUP_Q:
        count = len(next(tower_level_states(q, 1)))
        if count != q * q - q:
            failures.append(f"q={q} count {count}")
    return "admissible_start_count q in {2,3,4,5}", failures


def _check_gap_genus(q: int) -> tuple[str, list[str]]:
    failures: list[str] = []
    for m in range(2, TOWER_M_MAX + 1):
        s = weierstrass_semigroup(q, m)
        gaps = s.conductor - len(s.below)
        if gaps != gs_tower.genus(q, m):
            failures.append(f"m={m} gaps {gaps}")
    return f"gap_count==genus for ({q},2..{TOWER_M_MAX})", failures


def _check_ratio_limit() -> tuple[str, list[str]]:
    failures: list[str] = []
    for q in RATIO_Q:
        seq = gs_tower.tower_ratio_sequence(q, RATIO_M)
        gap = abs(seq[-1] - gs_tower.points_per_degree_limit(q))
        if gap >= RATIO_TOL:
            failures.append(f"q={q} gap {gap}")
    return "ratio_gap_at_m=40 < 1/1000 (q in {2,3,4,5})", failures


def _check_ratio_monotone() -> tuple[str, list[str]]:
    failures: list[str] = []
    for q in RATIO_Q:
        seq = gs_tower.tower_ratio_sequence(q, 45)
        limit = gs_tower.points_per_degree_limit(q)
        if any(a <= b for a, b in zip(seq, seq[1:])):
            failures.append(f"q={q} not decreasing")
        if any(r <= limit for r in seq):
            failures.append(f"q={q} crosses limit")
    return "ratio_monotone_decreasing m in 2..45", failures


def _check_frozen_tower_values() -> tuple[str, list[str]]:
    checks = (
        gs_tower.count_split_chains(2, 2) == 4,
        gs_tower.count_split_chains(2, 1) == 2,
        gs_tower.count_split_chains(3, 2) == 18,
        gs_tower.count_split_chains(2, 4) == 16,
        gs_tower.genus(2, 2) == 1,
        gs_tower.genus(2, 3) == 3,
        gs_tower.genus(3, 1) == 0,
        gs_tower.genus(2, 4) == 9,
        gs_tower.tower_ratio_sequence(2, 4)[-1] == Fraction(16, 19),
        gs_tower.points_per_degree_limit(2) == Fraction(2, 3),
        gs_tower.points_per_degree_limit(3) == Fraction(3, 2),
    )
    return "frozen_tower_values", [str(i) for i, ok in enumerate(checks) if not ok]


def check_gs(n_max: int = DEFAULT_N_MAX) -> list[CheckResult]:
    return _run("gs", _check_split_closed_form, _check_tower_level_mass,
                _check_admissible_start_count, *(partial(_check_gap_genus, q) for q in SEMIGROUP_Q),
                _check_ratio_limit, _check_ratio_monotone, _check_frozen_tower_values)


# ---------------------------------------------------------------------------
# semigroup scope
# ---------------------------------------------------------------------------


class NumericalSemigroup:
    """Cofinite additive submonoid of Z>=0.

    below is the ascending tuple of its members less than conductor; every
    n >= conductor is a member.  The stored conductor is always minimal
    (conductor - 1 is a gap whenever conductor > 0).
    """

    __slots__ = ("conductor", "below")

    def __init__(self, conductor: int, below: tuple[int, ...]) -> None:
        if conductor < 0 or any(a >= b for a, b in pairwise(below)):
            raise ValidationError("members must ascend strictly from a conductor >= 0")
        if conductor > 0 and below[:1] != (0,):
            raise ValidationError("0 must be a member")
        if below and below[-1] >= conductor:
            raise ValidationError("members must lie below the conductor")
        if conductor - 1 in below[-1:]:
            raise ValidationError("stored conductor is not minimal")
        self.conductor = conductor
        self.below = below

    def __contains__(self, n: int) -> bool:
        if n >= self.conductor:
            return True
        i = bisect_left(self.below, n)
        return i < len(self.below) and self.below[i] == n

    def members(self, stop: int) -> Iterator[int]:
        """Members below stop, ascending."""
        return chain(self.below[:bisect_left(self.below, stop)], range(self.conductor, stop))

    def smallest_positive(self) -> int:
        return self.below[1] if len(self.below) > 1 else max(self.conductor, 1)


def weierstrass_semigroup(q: int, m: int) -> NumericalSemigroup:
    """Level-m members below the conductor by the recursion; the reference for ``rpl.semigroup``.

    The members below c_m are exactly q*s with s in H(m-1) and q*s < c_m:
    the members of H(m-1) below ceil(c_m / q), scaled.  Nothing of size
    c_m is built.
    """
    c = semigroup.capped_conductor(q, m)
    if m == 1:
        return NumericalSemigroup(0, ())
    below = tuple(q * s for s in weierstrass_semigroup(q, m - 1).members(-(-c // q)))
    if c - 1 in below[-1:]:
        raise ComputationError(f"recursion produced the member {c - 1}, so a conductor below {c}")
    return NumericalSemigroup(c, below)


def _check_gap_genus_full_grid() -> tuple[str, list[str], str]:
    grid = semigroup_grid()
    failures: list[str] = []
    for q, m in grid:
        s = weierstrass_semigroup(q, m)
        gaps = s.conductor - len(s.below)
        if gaps != gs_tower.genus(q, m):
            failures.append(f"({q},{m}) gaps {gaps}")
    return "gap_count==genus full grid c_m<=10^6", failures, f"{len(grid)} cells"


def _check_conductor_minimal() -> tuple[str, list[str]]:
    failures: list[str] = []
    for q, m in semigroup_grid():
        if m < 2:
            continue
        s = weierstrass_semigroup(q, m)
        if s.conductor != semigroup.conductor(q, m):
            failures.append(f"({q},{m}) conductor {s.conductor}")
        elif (s.conductor - 1) in s:
            failures.append(f"({q},{m}) conductor not minimal")
        elif s.smallest_positive() != semigroup.smallest_positive(q, m):
            failures.append(f"({q},{m}) smallest {s.smallest_positive()}")
    return "conductor==q^m-q^ceil(m/2) and minimal", failures


def _check_generator_bounds_grid() -> tuple[str, list[str]]:
    """The extreme generators meet their closed forms, so gs may print True."""
    failures: list[str] = []
    for q, m in semigroup_grid():
        if m < 2:
            continue
        gens = semigroup.minimal_generators(q, m)  # ascending
        first, last = next(gens), max(gens)
        if first != semigroup.smallest_positive(q, m) or last != semigroup.largest_generator(q, m):
            failures.append(f"({q},{m})")
    for q, m, largest in ((2, 3, 7), (2, 4, 19)):
        if semigroup.largest_generator(q, m) != largest:
            failures.append(f"({q},{m}) expected gamma_last {largest}")
    return "generator_bounds grid m>=2", failures


def _check_additive_closure() -> tuple[str, list[str]]:
    failures: list[str] = []
    for q, m in semigroup_grid():
        s = weierstrass_semigroup(q, m)
        pool = list(s.members(max(s.conductor, 2)))
        rng = random.Random(777000 + 1000 * q + m)
        for _ in range(CLOSURE_PAIRS):
            a = rng.choice(pool)
            b = rng.choice(pool)
            if (a + b) not in s:
                failures.append(f"({q},{m}) {a}+{b}")
                break
    return f"additive_closure x{CLOSURE_PAIRS}", failures


def _regenerate(gens: tuple[int, ...], span: int) -> int:
    reach = 1
    mask = (1 << span) - 1
    changed = True
    while changed:
        changed = False
        for g in gens:
            grown = (reach | (reach << g)) & mask
            if grown != reach:
                reach = grown
                changed = True
    return reach


def sieve_generators(s: NumericalSemigroup) -> tuple[int, ...]:
    """Minimal generators of any numerical semigroup, by sieving pair sums.

    The reference for ``semigroup.minimal_generators``.  Every minimal
    generator is below conductor + smallest positive member: anything at
    or past that bound is (member >= conductor) + smallest.  Below the
    bound, a sum of two positive members is necessarily a sum of two
    members below the conductor, because tail + anything already reaches
    the bound.
    """
    c = s.conductor
    if c == 0:
        return (1,)
    limit = c + s.smallest_positive()
    sparse = s.below[1:]
    reach = bytearray(limit)
    for i, a in enumerate(sparse):
        for b in sparse[i:]:
            total = a + b
            if total >= limit:
                break
            reach[total] = 1
    return tuple(n for n in s.members(limit) if n > 0 and not reach[n])


def _check_regeneration() -> tuple[str, list[str]]:
    """Production generators regenerate S on [0, 2c) and equal the sieve."""
    cells = [(2, m) for m in range(2, 13)] + [(3, m) for m in range(2, 8)]
    cells += [(4, m) for m in range(2, 6)] + [(5, m) for m in range(2, 5)]
    failures: list[str] = []
    for q, m in cells:
        s = weierstrass_semigroup(q, m)
        span = 2 * s.conductor
        gens = tuple(semigroup.minimal_generators(q, m))
        below = sum(1 << n for n in s.below)  # distinct bits, so the sum is their OR
        expected = ((1 << span) - 1) >> s.conductor << s.conductor | below
        if _regenerate(gens, span) != expected or gens != sieve_generators(s):
            failures.append(f"({q},{m})")
    return "regenerate_from_generators [0,2c)", failures


def _check_frozen_semigroups() -> tuple[str, list[str]]:
    s22 = weierstrass_semigroup(2, 2)
    s23 = weierstrass_semigroup(2, 3)
    s24 = weierstrass_semigroup(2, 4)
    checks = (
        semigroup.conductor(2, 3) == 4,
        semigroup.conductor(2, 4) == 12,
        semigroup.conductor(3, 2) == 6,
        list(s22.members(5)) == [0, 2, 3, 4],
        list(s23.members(6)) == [0, 4, 5],
        list(s24.members(13)) == [0, 8, 10, 12],
        semigroup.gap_count(2, 2) == 1,
        semigroup.gap_count(2, 3) == 3,
        semigroup.gap_count(2, 4) == 9,
        tuple(semigroup.minimal_generators(2, 2)) == (2, 3),
        tuple(semigroup.minimal_generators(2, 3)) == (4, 5, 6, 7),
        tuple(semigroup.minimal_generators(2, 4)) == (8, 10, 12, 13, 14, 15, 17, 19),
        tuple(semigroup.minimal_generators(3, 2)) == (3, 7, 8),
        tuple(semigroup.minimal_generators(2, 1)) == (1,),
    )
    return "frozen_semigroups", [str(i) for i, ok in enumerate(checks) if not ok]


def check_semigroup(n_max: int = DEFAULT_N_MAX) -> list[CheckResult]:
    return _run("semigroup", _check_gap_genus_full_grid, _check_conductor_minimal,
                _check_generator_bounds_grid, _check_additive_closure, _check_regeneration,
                _check_frozen_semigroups)


# ---------------------------------------------------------------------------
# bounds scope
# ---------------------------------------------------------------------------


def projective_plane_points(ctx: FieldContext) -> list[tuple[int, int, int]]:
    """Normalized representatives of P^2 over ctx (first nonzero = 1)."""
    elems = list(ctx.elements())
    zero, one = ctx.zero, ctx.one
    points = [(one, y, z) for y, z in product(elems, repeat=2)]
    points += [(zero, one, z) for z in elems]
    points.append((zero, zero, one))
    return points


def count_exceptional_quartic() -> int:
    """Rational points over F_4 of the quartic
    (X+Y+Z)^4 + (XY+YZ+ZX)^2 + XYZ(X+Y+Z) = 0,
    the unique curve exceeding Sziklai's bound; must come out 14.
    """
    ctx = make_field(2, 2)
    count = 0
    for x, y, z in projective_plane_points(ctx):
        s = ctx.add(ctx.add(x, y), z)
        t = ctx.add(ctx.add(ctx.mul(x, y), ctx.mul(y, z)), ctx.mul(z, x))
        u = ctx.mul(ctx.mul(ctx.mul(x, y), z), s)
        value = ctx.add(ctx.add(ctx.pow(s, 4), ctx.mul(t, t)), u)
        if value == ctx.zero:
            count += 1
    return count


def _check_exceptional_quartic() -> tuple[str, list[str], str]:
    ctx = field_from_order(4)
    points = len(projective_plane_points(ctx))
    count = count_exceptional_quartic()
    plane_bound = bounds.sziklai_bound(4, 4)
    ok = points == 21 and count == 14 and plane_bound == 13 and count > plane_bound
    detail = f"count {count} of {points}"
    return "exceptional_quartic=14", [] if ok else [detail], detail


def _check_coefficient_frozen() -> tuple[str, list[str]]:
    checks = (
        bounds.nondegenerate_coefficient(4, 2) == Fraction(7, 2),
        bounds.nondegenerate_coefficient(2, 2) == Fraction(7, 4),
        bounds.nondegenerate_coefficient(3, 3) == Fraction(20, 9),
    )
    return "coefficient_frozen_values", [str(i) for i, ok in enumerate(checks) if not ok]


def _check_coefficient_monotone(n_max: int) -> tuple[str, list[str]]:
    failures: list[str] = []
    for q in CONVERGENCE_Q:
        vals = [bounds.nondegenerate_coefficient(q, n) for n in range(2, n_max + 1)]
        if any(a <= b for a, b in zip(vals, vals[1:])):
            failures.append(f"q={q} not decreasing")
        if any(not (q - 1 < v < q) for v in vals):
            failures.append(f"q={q} out of band")
    return "coefficient_monotone q-1<coef<q", failures


def _check_upper_limit_convergence(n_max: int) -> tuple[str, list[str], str]:
    failures: list[str] = []
    found: list[str] = []
    for q in CONVERGENCE_Q:
        try:
            report = bounds.upper_limit_check(q, n_max, CONVERGENCE_EPS)
        except RplError as exc:
            failures.append(f"q={q} {type(exc).__name__}")
            continue
        found.append(f"{q}:{report.n0}")
    return f"upper_limit_convergence eps=1e-9 n<={n_max}", failures, "n0 " + " ".join(found)


def _check_dq_consistency() -> tuple[str, list[str]]:
    failures: list[str] = []
    for q, _, _ in prime_powers(1024):
        summary = bounds.dq_summary(q)
        if summary.upper != q - 1:
            failures.append(f"q={q} upper {summary.upper}")
        elif q == 2 and summary.best_lower is not None:
            failures.append("q=2 has a lower bound")
        elif q > 2 and not (summary.best_lower is not None and summary.best_lower <= summary.upper):
            failures.append(f"q={q} best {summary.best_lower}")
    return "dq_lower<=upper q<=1024", failures


def _check_square_tower_cross_module() -> tuple[str, list[str]]:
    failures: list[str] = []
    for r in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 31, 32):
        summary = bounds.dq_summary(r * r)
        expected = gs_tower.points_per_degree_limit(r)
        records = [rec for rec in summary.records if rec.name == "square-tower"]
        if len(records) != 1 or records[0].value != expected:
            failures.append(f"r={r}")
    return "square_tower_cross_module", failures


def _check_aq_half_table() -> tuple[str, list[str]]:
    table = bounds.IHARA_HALF_TABLE.values()
    failures: list[str] = []
    if tuple(entry.q for entry in table) != (3, 4, 5, 7, 8, 11, 13, 17, 19, 23, 29, 31):
        failures.append("row set")
    for entry in table:
        if entry.half_lower != Fraction(entry.printed):
            failures.append(f"q={entry.q} value")
        if not entry.reference:
            failures.append(f"q={entry.q} reference")
    row8 = next(entry for entry in table if entry.q == 8)
    if row8.half_lower != bounds.half_ihara_odd_power(2, 3) or row8.half_lower != Fraction(3, 4):
        failures.append("q=8 odd-power mismatch")
    return "aq_half_table", failures


def _check_classical_bounds_frozen() -> tuple[str, list[str]]:
    dvz2 = bounds.drinfeld_vladut_upper(2)
    cover = dvz2.rational_upper + 1
    checks = (
        bounds.weil_bound(4, 1) == 9,
        bounds.weil_bound(2, 0) == 3,
        bounds.weil_bound(2, 3) == 11,
        bounds.sziklai_bound(4, 4) == 13,
        bounds.sziklai_bound(3, 1) == 1,
        bounds.sziklai_bound(5, 10) == 46,
        bounds.drinfeld_vladut_upper(4).exact == 1,
        bounds.drinfeld_vladut_upper(9).exact == 2,
        not dvz2.is_square and dvz2.radicand == 2,
        cover * cover >= 2 > (cover - Fraction(1, 10**5)) ** 2,
    )
    return "weil_sziklai_dvz_frozen", [str(i) for i, ok in enumerate(checks) if not ok]


def _check_dq_frozen() -> tuple[str, list[str]]:
    s9 = bounds.dq_summary(9)
    s4 = bounds.dq_summary(4)
    s2 = bounds.dq_summary(2)
    s32 = bounds.dq_summary(32)
    names4 = {rec.name: rec.value for rec in s4.records}
    checks = (
        s9.upper == 8 and s9.best_lower == Fraction(3, 2),
        s4.upper == 3 and s4.best_lower == 1,
        names4.get("square-tower") == Fraction(2, 3),
        names4.get("half-ihara-table") == Fraction(1, 2),
        s2.upper == 1 and s2.best_lower is None,
        s32.best_lower == Fraction(21, 10),
    )
    return "dq_frozen_summaries", [str(i) for i, ok in enumerate(checks) if not ok]


def check_bounds(n_max: int = DEFAULT_N_MAX) -> list[CheckResult]:
    return _run("bounds", _check_exceptional_quartic, _check_coefficient_frozen,
                partial(_check_coefficient_monotone, n_max),
                partial(_check_upper_limit_convergence, n_max),
                _check_dq_consistency, _check_square_tower_cross_module, _check_aq_half_table,
                _check_classical_bounds_frozen, _check_dq_frozen)


_SCOPE_RUNNERS = {
    "gf": check_gf,
    "homma": check_homma,
    "gs": check_gs,
    "semigroup": check_semigroup,
    "bounds": check_bounds,
}


def run_verify(scope: str = "all", n_max: int = DEFAULT_N_MAX) -> list[CheckResult]:
    if scope not in SCOPES:
        raise ValidationError(f"unknown scope {scope!r}; expected one of {', '.join(SCOPES)}")
    if n_max < 2:  # before any check runs, whichever scope reads it
        raise ValidationError(f"n_max must be >= 2, got {n_max}")
    if n_max > N_MAX_CAP:
        raise ValidationError(f"n_max must be <= {N_MAX_CAP}, got {n_max}")
    if scope == "all":
        results: list[CheckResult] = []
        for name in SCOPES[1:]:
            results.extend(_SCOPE_RUNNERS[name](n_max))
        return results
    return _SCOPE_RUNNERS[scope](n_max)
