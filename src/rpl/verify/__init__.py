"""Named self-verification checks behind the ``verify`` CLI subcommand.

Every check recomputes an invariant from scratch and compares it against an
independent route (closed form vs enumeration, recursion vs sieve, frozen
values vs live evaluation). Checks are pure and deterministic: fixed grids,
seeded generators, stable ordering.

A check returns its name and its failures, and optionally what it covered;
it passes when it reports no failures. ``_run`` alone turns that into a
verdict: the scope, PASS or FAIL, and a detail that is the first four
failures plus ``+N more``, or else what the check covered. A check that
raises fails under its own name, and the others still run; ``traceback``
is imported only to print a bug's traceback.

Each scope's checks live in the module of the same name (``gf``, ``homma``,
``gs``, ``semigroup``, ``bounds``), as ``check_<scope>``; ``run_verify``
imports a scope's module just before that scope runs, so a run compiles and
holds only the scopes it asks for.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable

from .. import DEFAULT_N_MAX, N_MAX_CAP, SCOPES
from ..errors import ValidationError


class ComputationError(Exception):
    """A computation failed one of its own certificates."""


class CheckResult(namedtuple("CheckResult", "scope name ok detail", defaults=("",))):
    """One named check's verdict; detail says what failed, or what was covered."""

    __slots__ = ()


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
    partial's arguments). Any exception is a bug, a ValidationError too:
    its traceback goes to stderr.
    """
    results = []
    for check in checks:
        try:
            name, failures, *covered = check()
        except Exception as exc:  # one broken check must not end the run
            func, args = getattr(check, "func", check), getattr(check, "args", ())  # a partial
            name = " ".join([func.__name__.removeprefix("_check_"), *map(str, args)])
            import traceback  # only a raising bug pays for it
            traceback.print_exc()
            failures, covered = [type(exc).__name__], []
        detail = _fail_detail(failures) or "".join(covered)
        results.append(CheckResult(scope, name, not failures, detail))
    return results


def run_verify(scope: str = "all", n_max: int = DEFAULT_N_MAX) -> list[CheckResult]:
    if scope not in SCOPES:
        raise ValidationError(f"unknown scope {scope!r}; expected one of {', '.join(SCOPES)}")
    if n_max < 2:  # before any check runs, whichever scope reads it
        raise ValidationError(f"n_max must be >= 2, got {n_max}")
    if n_max > N_MAX_CAP:
        raise ValidationError(f"n_max must be <= {N_MAX_CAP}, got {n_max}")
    results: list[CheckResult] = []
    for name in SCOPES[1:] if scope == "all" else (scope,):
        module = __import__(f"{__name__}.{name}", fromlist=["_"])  # the submodule, loaded now
        results.extend(getattr(module, f"check_{name}")(n_max))
    return results
