"""The homma scope: the family's point counts against a brute-force search of P^ell."""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction

from .. import DEFAULT_N_MAX, homma_family
from ..errors import ValidationError
from ..gf import FieldContext, field_from_order
from ..primes import factor_prime_power
from . import CheckResult, ComputationError, _run, _solutions

HOMMA_Q = (3, 4, 5, 7, 8, 9)
HOMMA_ELL = (2, 3, 4, 5, 6)
BRUTE_FORCE_CAP = 10**7


def homma_grid() -> list[tuple[int, int]]:
    return [(q, ell) for q in HOMMA_Q for ell in HOMMA_ELL]


def affine_level_states(q: int, ell: int) -> Iterator[dict[int, int]]:
    """Distributions of attained x_i values, one per level 1..ell.

    The reference for ``homma_family.count_total(q, ell).affine``.  Level 1
    is uniform over F_q; each later level maps a value v to every y in F_q
    with y^{q-1} = -1 + (v+1)^{q-1}, found by scanning the field,
    multiplicities carried along.  Mass can never grow by more than a factor q per level
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
        raise ValidationError(
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
    is carried as its last coordinate, one generated entry per prefix: the
    levels are chained generators, and no level is held whole.
    """
    prev = lead[0]
    for cur in lead[1:]:
        if pw[cur] != row[prev]:
            return 0
        prev = cur
    elems = range(len(pw))
    prefixes = iter((prev,))
    for _ in range(ell - len(lead)):
        prefixes = (x for v in prefixes for x in elems if pw[x] == row[v])
    return sum(1 for _ in prefixes)


def _check_infinity_closed_form() -> tuple[str, list[str]]:
    failures = [
        f"({q},{ell})"
        for q, ell in homma_grid()
        if homma_family.count_total(q, ell).infinity != brute_force_projective(q, ell).infinity
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
        _, degree, total = homma_family.count_total(q, ell)  # infinity numbers the degree
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
            if sum(states[-1].values()) != homma_family.count_total(q, ell).affine:
                failures.append(f"({q},{ell}) final mass")
    return "level_mass_conservation grid", failures


def _check_frozen_point_counts() -> tuple[str, list[str]]:
    checks = (
        homma_family.count_total(3, 3) == homma_family.PointCount(2, 4, 6),
        homma_family.count_total(4, 2) == homma_family.PointCount(6, 3, 9),
        homma_family.count_total(3, 2) == homma_family.PointCount(2, 2, 4),
        homma_family.count_total(5, 2).affine == 4,
        homma_family.count_total(9, 5).infinity == 4096,
        homma_family.count_total(5, 4).infinity == 64,
        brute_force_projective(3, 4) == homma_family.count_total(3, 4),
    )
    return "frozen_point_counts", [str(i) for i, ok in enumerate(checks) if not ok]


def check_homma(n_max: int = DEFAULT_N_MAX) -> list[CheckResult]:
    return _run("homma", _check_infinity_closed_form, _check_brute_force_agreement,
                _check_total_at_least_degree, _check_mass_conservation, _check_frozen_point_counts)
