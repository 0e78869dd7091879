"""Deterministic command-line interface: what the commands are.

Subcommands: points-homma, gs, semigroup, bounds, verify, their options and handlers declared once,
in COMMANDS; main() and run() hand that table to rpl.entry, which parses the line, runs the handler
and writes its output. Each handler checks its input rules in README's order, one call per rule, so
the first rule broken is the one named, and only then calls the closed forms, which check their own
domain rules again. It renders only the format --format chose (json, csv or text); identical
invocations produce byte-identical output. Exit codes: 0 success, 1 a failed verify check (or a bug,
shown as a traceback), 2 a rejected input or a failed write. Each handler imports the rpl modules it
reads, so --help loads none, and only semigroup and bounds compile rpl.streams, their streamed
renderers; only bounds and verify load fractions and decimal. Only --format json loads json, and
only --format csv loads csv, for every command but bounds. No command but verify loads rpl.gf, and
verify loads only the scope modules it runs. The caps on a command's cost (field_cap,
capped_conductor, TABLE_CAP and N_MAX_CAP) live here alone; closed forms and verify check only the
rules of their own domain.
"""

from __future__ import annotations

import os
from collections import namedtuple
from math import gcd

from . import DEFAULT_N_MAX, PRINT_LIMIT, SCOPES, entry, printable_power
from .entry import Namespace, csv_lines, json_line, record
from .errors import ValidationError

FIELD_CAP_ENV = "RPL_MAX_FIELD"
DEFAULT_FIELD_CAP = 1 << 20
EPILOG = (
    f"The environment variable {FIELD_CAP_ENV} lowers the field-size cap "
    f"(default 2^20 = {DEFAULT_FIELD_CAP}); values above the default or "
    "malformed values are ignored."
)
# --table limit: a fresh table at 10^7 takes 1.6 s in json (1.5-2.2), 1.6 s in csv (1.4-2.0)
# and 1.1 s in text (0.9-1.8): medians and ranges of 7 runs, 2-vCPU Intel Xeon, Python 3.11.7
TABLE_CAP = 10_000_000
# semigroup marks its generators a segment at a time, so this caps its time, not its memory: one
# pass over c_m marks plus the q^(m-1) generators written. A fresh --q 2 --m 23 (c_m = 8,384,512;
# 36 MB of text) takes 0.13-0.18 s per format (medians of 5 runs, 2-vCPU Intel Xeon, Python 3.11.7)
CONDUCTOR_CAP = 10**7
N_MAX_CAP = 4000  # --n-max limit: coefficient_monotone takes 4.6 s at 4000 and 31 s at 8000


class Rendering(namedtuple("Rendering", "pieces exit_code", defaults=(0,))):
    """A command's output in the chosen format, as pieces of text written in order.

    A handler renders only args.format, after it has validated its input;
    a streamed part is rendered a window of generators or a table row at a
    time, as the pieces are written.
    """

    __slots__ = ()


def field_cap() -> int:
    """Cap on the field order of a command's input; the env override can only lower it."""
    try:
        value = int(os.environ.get(FIELD_CAP_ENV, ""))
    except ValueError:  # unset or malformed
        return DEFAULT_FIELD_CAP
    return value if 2 <= value < DEFAULT_FIELD_CAP else DEFAULT_FIELD_CAP  # 2: the least field


def capped_conductor(q: int, m: int) -> int:
    """The conductor c_m; rejects q < 2, then m < 1, then a c_m above CONDUCTOR_CAP."""
    from . import semigroup
    semigroup.check_level(q, m)
    # c_m >= q^(m-1): if that cannot print, c_m is not formed and PRINT_LIMIT stands in for it
    c = semigroup.conductor(q, m) if printable_power(q, m - 1) is not None else PRINT_LIMIT
    if c <= CONDUCTOR_CAP:
        return c
    shown = c if c < PRINT_LIMIT else f"q^m - q^ceil(m/2) at q = {q}, m = {m}"
    raise ValidationError(f"conductor {shown} exceeds the bitmap cap {CONDUCTOR_CAP}")


def _ratio(a: int, b: int) -> str:
    """str(Fraction(a, b)) for positive a and b, without loading fractions."""
    g = gcd(a, b)
    return str(a // g) if b == g else f"{a // g}/{b // g}"


def _cmd_points_homma(args: Namespace) -> Rendering:
    from . import homma_family
    from .primes import capped_order, factor_prime_power
    capped_order(*factor_prime_power(q := args.q), field_cap())
    count = homma_family.count_total(q, args.ell)  # checks q again, then q > 2, ell and the degree
    return Rendering(record(args.format, {
        "schema": 1,
        "affine": count.affine,
        "infinity": count.infinity,
        "total": count.total,
        "degree": count.infinity,  # the points at infinity number the degree
        "ratio": _ratio(count.total, count.infinity),
    }))


def _cmd_gs(args: Namespace) -> Rendering:
    from . import gs_tower, semigroup
    from .primes import capped_order, factor_prime_power
    q, m = args.q, args.m
    p, e = factor_prime_power(q)
    semigroup.check_level(q, m)
    capped_order(p, 2 * e, field_cap())
    c = capped_conductor(q, m)
    split = gs_tower.count_split_chains(q, m)  # factors q again, now at most 1024
    genus = semigroup.gap_count(q, m)
    # the generator bounds hold for every m >= 2 (Pellikaan-Stichtenoth-Torres
    # 1998); verify semigroup certifies them for q in 2..5 with c_m <= 10^6
    verdict = True if m >= 2 else None
    return Rendering(record(args.format, {
        "schema": 1,
        "q": q,
        "m": m,
        "genus": genus,
        "split": split,
        "conductor": c,
        "gap_count": genus,
        "gamma_first": semigroup.smallest_positive(q, m),
        "gamma_last": semigroup.largest_generator(q, m),
        "smallest_ok": verdict,
        "largest_ok": verdict,
    }))


def _cmd_semigroup(args: Namespace) -> Rendering:
    from . import semigroup, streams
    q, m = args.q, args.m
    c = capped_conductor(q, m)  # before any marking
    return Rendering(record(args.format, {
        "schema": 1,
        "q": q,
        "m": m,
        "conductor": c,
        "gap_count": semigroup.gap_count(q, m),
        "smallest_positive": semigroup.smallest_positive(q, m),
        "generators": [],
    }, streams.join_marked(semigroup.generator_marks(q, m), "," if args.format == "json" else ";")))


def _cmd_bounds(args: Namespace) -> Rendering:
    from . import bounds, streams
    if (qmax := args.table) is not None and not 2 <= qmax <= TABLE_CAP:
        limit = "least 2" if qmax < 2 else f"most {TABLE_CAP}"
        raise ValidationError(f"--table expects a limit of at {limit}, got {qmax}")
    # --q's one row, or one lazy stream of rows, each rendered as soon as it is computed
    rows = [bounds.dq_row(args.q)] if qmax is None else bounds.dq_rows(qmax)
    pieces = streams.bound_rows(rows, fmt := args.format, qmax)
    return Rendering(json_line({"schema": 1, "qmax": qmax, "rows": []}, pieces)  # a table, framed
                     if fmt == "json" and qmax else pieces)


def _cmd_verify(args: Namespace) -> Rendering:
    if args.n_max > N_MAX_CAP:
        raise ValidationError(f"n_max must be <= {N_MAX_CAP}, got {args.n_max}")
    from . import verify  # needed by no other command; it loads each scope as it runs
    results = verify.run_verify(args.scope, args.n_max)
    passed = sum(1 for res in results if res.ok)
    if args.format == "json":
        pieces = json_line({"schema": 1, "scope": args.scope,
                        "checks": [res._asdict() for res in results],  # scope, name, ok, detail
                        "passed": passed, "total": len(results)})
    elif args.format == "csv":
        pieces = csv_lines([verify.CheckResult._fields, *results])
    else:
        pieces = [*(f"[{res.scope}] {res.name} {'PASS' if res.ok else f'FAIL ({res.detail})'}\n"
                    for res in results), f"{passed}/{len(results)} checks passed\n"]
    return Rendering(pieces, exit_code=0 if passed == len(results) else 1)


# Each command's options, declared once, as argparse's add_argument takes them; one_of marks a
# required exclusive group of its own options. rpl.entry parses by it and builds argparse's from it.
Command = namedtuple("Command", "help handler options one_of", defaults=(False,))
COMMON = {"--format": dict(choices=("json", "csv", "text"), default="text"),
          "--out": dict(metavar="PATH", help="write output to PATH")}
COMMANDS = {
    "points-homma": Command("point counts for the recursive projective family", _cmd_points_homma, {
        "--q": dict(type=int, required=True, help="field size, q > 2"),
        "--ell": dict(type=int, required=True, help="ambient dimension, ell >= 2")}),
    "gs": Command("tower split count, genus, and semigroup verdicts", _cmd_gs, {
        "--q": dict(type=int, required=True, help="subfield size; arithmetic is over q^2"),
        "--m": dict(type=int, required=True, help="tower level, m >= 1")}),
    "semigroup": Command("Weierstrass semigroup data at the tower's top place", _cmd_semigroup, {
        "--q": dict(type=int, required=True), "--m": dict(type=int, required=True)}),
    "bounds": Command("bound records for one q or a prime-power table", _cmd_bounds, {
        "--q": dict(type=int, help="prime power to summarize"),
        "--table": dict(type=int, metavar="QMAX", help="tabulate prime powers <= QMAX, "
                        f"2 <= QMAX <= {TABLE_CAP}")}, one_of=True),
    "verify": Command("run the named self-verification checks", _cmd_verify, {
        "scope": dict(nargs="?", choices=SCOPES, default="all"),
        "--n-max": dict(type=int, default=DEFAULT_N_MAX, help="scan depth for the convergence "
                        f"checks, 2 <= N_MAX <= {N_MAX_CAP} (default %(default)s)")}),
}


def main(argv: list[str] | None = None) -> int:
    """Run the command argv names (None: sys.argv[1:]) and return its exit code."""
    return entry.main(argv, COMMANDS, COMMON, EPILOG)


def run() -> None:
    """main() ending its process, as the rpl script and `python -m rpl.cli` run it."""
    entry.run(main)


if __name__ == "__main__":
    run()
