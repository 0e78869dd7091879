"""The bounds scope: the bound records, their limits and the exceptional quartic,
with the classical bounds and the coefficient's scan to q - 1, which no command reads."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import partial
from itertools import product
from math import isqrt

from .. import DEFAULT_N_MAX, bounds
from ..errors import ValidationError
from ..gf import FieldContext, field_from_order, make_field
from ..primes import factor_prime_power, prime_powers
from . import CheckResult, _run
from .gs import points_per_degree_limit

CONVERGENCE_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
CONVERGENCE_EPS = Fraction(1, 10**9)


def weil_bound(q: int, g: int) -> int:
    """Hasse-Weil upper bound floor(q + 1 + 2g*sqrt(q)), exactly."""
    factor_prime_power(q)
    if g < 0:
        raise ValidationError(f"genus must be >= 0, got {g}")
    return q + 1 + isqrt(4 * g * g * q)


def sziklai_bound(q: int, d: int) -> int:
    """Sziklai's bound (d-1)q + 1 for plane curves of degree d."""
    if d < 1:
        raise ValidationError(f"degree must be >= 1, got {d}")
    return (d - 1) * q + 1


class SurdBound(namedtuple("SurdBound", "q is_square exact radicand rational_upper")):
    """sqrt(q) - 1, exact for square q, else a surd with a rational cover."""

    __slots__ = ()


def drinfeld_vladut_upper(q: int) -> SurdBound:
    """Upper bound sqrt(q) - 1 on the Ihara constant A(q).

    Attained with equality when q is a square.  For non-squares the
    value is irrational; any rational at or above it is a valid cover,
    and the one returned is sqrt(q) rounded up at 6 decimal digits.
    """
    factor_prime_power(q)
    r = isqrt(q)
    if r * r == q:
        return SurdBound(q=q, is_square=True, exact=r - 1, radicand=None,
                         rational_upper=Fraction(r - 1))
    scale = 10**6
    cover = Fraction(isqrt(q * scale * scale) + 1, scale) - 1
    return SurdBound(q=q, is_square=False, exact=None, radicand=q,
                     rational_upper=cover)


class NotConverged(Exception):
    """Convergence target not reached within the allowed window."""


class ConvergenceReport(namedtuple("ConvergenceReport", "q n_max eps n0 final_gap")):
    """Witness that the coefficient stays within eps of q - 1 from n0 on."""

    __slots__ = ()


def upper_limit_check(q: int, n_max: int, eps: Fraction) -> ConvergenceReport:
    """Find the least n0 with |coefficient(q, n) - (q-1)| < eps for all
    n in [n0, n_max], scanning exactly; NotConverged if no tail qualifies.

    The gap coefficient - (q-1) is (q-1)^2 (n+1) / D(n), D(n) = q^(n+1) - q - n(q-1), and
    (n+1) D(n+1) - (n+2) D(n) = q^(n+1) ((n+1)(q-1) - 1) + 1 > 0 for q >= 2, n >= 1: the gap
    is positive and falls strictly, so the first n inside the window starts the tail.
    """
    factor_prime_power(q)
    if n_max < 2:
        raise ValidationError(f"n_max must be >= 2, got {n_max}")
    eps = Fraction(eps)
    if eps <= 0:
        raise ValidationError(f"eps must be positive, got {eps}")
    target = q - 1
    n0 = next((n for n in range(2, n_max + 1)
               if bounds.nondegenerate_coefficient(q, n) - target < eps), None)
    if n0 is None:
        raise NotConverged(
            f"coefficient never entered the eps-window of q - 1 up to n_max = {n_max}"
        )
    return ConvergenceReport(
        q=q,
        n_max=n_max,
        eps=eps,
        n0=n0,
        final_gap=bounds.nondegenerate_coefficient(q, n_max) - target,
    )


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
    plane_bound = sziklai_bound(4, 4)
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
            report = upper_limit_check(q, n_max, CONVERGENCE_EPS)
        except (NotConverged, ValidationError) as exc:
            failures.append(f"q={q} {type(exc).__name__}")
            continue
        found.append(f"{q}:{report.n0}")
    return f"upper_limit_convergence eps=1e-9 n<={n_max}", failures, "n0 " + " ".join(found)


def _check_dq_consistency() -> tuple[str, list[str]]:
    failures: list[str] = []
    for q, _, _ in prime_powers(1024):
        summary = bounds.dq_summary(q)
        if (upper := summary.records[0].value) != q - 1:
            failures.append(f"q={q} upper {upper}")
        elif q == 2 and summary.best_lower is not None:
            failures.append("q=2 has a lower bound")
        elif q > 2 and not (summary.best_lower is not None and summary.best_lower <= upper):
            failures.append(f"q={q} best {summary.best_lower}")
    return "dq_lower<=upper q<=1024", failures


def _check_square_tower_cross_module() -> tuple[str, list[str]]:
    failures: list[str] = []
    for r in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 31, 32):
        summary = bounds.dq_summary(r * r)
        expected = points_per_degree_limit(r)
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
    dvz2 = drinfeld_vladut_upper(2)
    cover = dvz2.rational_upper + 1
    checks = (
        weil_bound(4, 1) == 9,
        weil_bound(2, 0) == 3,
        weil_bound(2, 3) == 11,
        sziklai_bound(4, 4) == 13,
        sziklai_bound(3, 1) == 1,
        sziklai_bound(5, 10) == 46,
        drinfeld_vladut_upper(4).exact == 1,
        drinfeld_vladut_upper(9).exact == 2,
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
        s9.records[0].value == 8 and s9.best_lower == Fraction(3, 2),
        s4.records[0].value == 3 and s4.best_lower == 1,
        names4.get("square-tower") == Fraction(2, 3),
        names4.get("half-ihara-table") == Fraction(1, 2),
        s2.records[0].value == 1 and s2.best_lower is None,
        s32.best_lower == Fraction(21, 10),
    )
    return "dq_frozen_summaries", [str(i) for i, ok in enumerate(checks) if not ok]


def check_bounds(n_max: int = DEFAULT_N_MAX) -> list[CheckResult]:
    return _run("bounds", _check_exceptional_quartic, _check_coefficient_frozen,
                partial(_check_coefficient_monotone, n_max),
                partial(_check_upper_limit_convergence, n_max),
                _check_dq_consistency, _check_square_tower_cross_module, _check_aq_half_table,
                _check_classical_bounds_frozen, _check_dq_frozen)
