"""Deterministic command-line interface.

Subcommands: points-homma, gs, semigroup, bounds, verify. Every command
renders to json, csv, or text; identical invocations produce byte-identical
output, written as it is rendered. The semigroup generators are written
straight from their mark bytes, a window of a thousand numbers at a time,
without an int per generator; windows with the same marks share one memo of
the suffixes they pick. Exit codes: 0 success, 1 computation or check
failure, 2 validation error or a failed write. A command imports only the
stdlib modules it uses (json only for --format json), and no command but
verify loads the field module rpl.gf.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from itertools import chain, compress, islice

from . import DEFAULT_N_MAX, SCOPES, bounds, gs_tower, homma_family, semigroup
from .errors import RplError, ValidationError
from .primes import DEFAULT_FIELD_CAP, FIELD_CAP_ENV, prime_powers_upto

EPILOG = (
    f"The environment variable {FIELD_CAP_ENV} lowers the field-size cap "
    f"(default 2^20 = {DEFAULT_FIELD_CAP}); values above the default or "
    "malformed values are ignored."
)
BLOCK = 1 << 12  # table rows rendered per write
MEMO_WINDOWS = 64  # distinct window marks _join_marked keeps at once
TABLE_CAP = 10_000_000  # --table limit: the sieve holds N+1 bytes, and 10^7 takes about 40 s


class Rendering(namedtuple("Rendering", "json csv text exit_code", defaults=(0,))):
    """A command's output in each format, as pieces of text written in order.

    The pieces are lazy: only the chosen format is rendered, and a streamed
    part (the generators, the table rows) a bounded piece at a time.
    """

    __slots__ = ()


def _blocks(items: Iterator, render: Callable[[list], str], sep: str = "") -> Iterator[str]:
    """render(block) for each block of up to BLOCK items, with sep between blocks."""
    lead = ""
    while block := list(islice(items, BLOCK)):
        yield lead + render(block)
        lead = sep


def _join_marked(low: int, mark: bytes, sep: str) -> Iterator[str]:
    """sep.join(map(str, compress(range(low, low + len(mark)), mark))), in pieces.

    No int is made per marked number.  From 1000 on, n-space is cut into
    windows [1000h, 1000h + 1000): a marked number there is str(h) followed
    by a three-digit suffix, so a window's text is one join of the suffixes
    its mark bytes pick from a shared table.  Marks repeat from window to
    window, so the picks are memoized, keyed by the table's length too (the
    first window's table starts at low's suffix) and cleared at MEMO_WINDOWS
    entries.  Each piece is one window.
    """
    suffixes = [f"{i:03d}" for i in range(1000)]
    lead = ""
    head = sep.join(map(str, compress(range(low, min(low + len(mark), 1000)), mark)))
    if head:
        yield head
        lead = sep
    start = max(low, 1000)
    h, r = divmod(start, 1000)
    a = start - low  # mark index of the window's first number
    table = suffixes[r:]  # low may fall inside a window
    memo = {}  # (len(table), window marks) -> the suffixes they pick
    while a < len(mark):
        b = a + len(table)
        key = len(table), bytes(mark[a:b])  # a window at a time, never all of mark
        picked = memo.get(key)
        if picked is None:
            if len(memo) == MEMO_WINDOWS:
                memo.clear()
            picked = memo[key] = list(compress(table, key[1]))
        if picked:
            prefix = str(h)
            yield lead + prefix + (sep + prefix).join(picked)
            lead = sep
        h, a, table = h + 1, b, suffixes


def _dumps(obj: object) -> str:
    import json  # only json output pays for it

    return json.dumps(obj, separators=(",", ":"))


def _json(obj: dict) -> Iterator[str]:
    """obj as one line of json.

    A callable last field f is an array, streamed as the text that f(",")
    yields: its items joined by ','.
    """
    *_, last = obj
    if callable(obj[last]):
        yield _dumps({**obj, last: []})[:-2]
        yield from obj[last](",")
        yield "]}\n"
    else:
        yield _dumps(obj) + "\n"


def _csv(rows: Iterable[Iterable[object]]) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _record(obj: dict) -> Rendering:
    """Render a one-record JSON object as a csv row and text lines, after "schema".

    None becomes an empty cell and no text line.  A callable last field f
    is a list, streamed as the text that f(";") yields: its items joined
    by ';'.
    """
    *_, last = obj
    tail = obj[last] if callable(obj[last]) else lambda sep: ()
    cells = {
        key: "" if value is None or value is tail else value
        for key, value in list(obj.items())[1:]
    }
    row = _csv([list(cells), cells.values()])
    lines = "".join(f"{key} {cell}\n" for key, cell in cells.items() if obj[key] is not None)
    # the tail is the last cell: it ends just before the final newline
    tail_text = tail(";")
    return Rendering(
        _json(obj), chain([row[:-1]], tail_text, ["\n"]), chain([lines[:-1]], tail_text, ["\n"])
    )


def _cmd_points_homma(args: argparse.Namespace) -> Rendering:
    count = homma_family.count_total(args.q, args.ell)  # validates (q, ell) once
    return _record({
        "schema": 1,
        "affine": count.affine,
        "infinity": count.infinity,
        "total": count.total,
        "degree": count.infinity,  # the points at infinity number the degree
        "ratio": str(Fraction(count.total, count.infinity)),
    })


def _cmd_gs(args: argparse.Namespace) -> Rendering:
    q, m = args.q, args.m
    gs_tower.check_level(q, m)
    c = semigroup.capped_conductor(q, m)  # before q^m is formed
    genus = gs_tower.genus(q, m)
    # the generator bounds hold for every m >= 2 (Pellikaan-Stichtenoth-Torres
    # 1998); verify semigroup certifies them for q in 2..5 with c_m <= 10^6
    verdict = True if m >= 2 else None
    return _record({
        "schema": 1,
        "q": q,
        "m": m,
        "genus": genus,
        "split": gs_tower.count_split_chains(q, m),
        "conductor": c,
        "gap_count": genus,
        "gamma_first": semigroup.smallest_positive(q, m),
        "gamma_last": semigroup.largest_generator(q, m),
        "smallest_ok": verdict,
        "largest_ok": verdict,
    })


def _cmd_semigroup(args: argparse.Namespace) -> Rendering:
    q, m = args.q, args.m
    low, mark = semigroup.generator_marks(q, m)  # validates and checks the cap
    return _record({
        "schema": 1,
        "q": q,
        "m": m,
        "conductor": semigroup.conductor(q, m),
        "gap_count": semigroup.gap_count(q, m),
        "smallest_positive": semigroup.smallest_positive(q, m),
        "generators": lambda sep: _join_marked(low, mark, sep),
    })


BOUNDS_HEADER = ["q", "upper", "best_lower", "records"]


def _summary(q: int) -> dict:
    """The bounds record of q as a JSON object; its csv row and text lines derive from it."""
    summary = bounds.dq_summary(q)
    return {
        "q": q,
        "upper": int(summary.upper),
        "best_lower": None if summary.best_lower is None else str(summary.best_lower),
        "records": [{**rec._asdict(), "value": str(rec.value)} for rec in summary.records],
    }


def _summary_row(obj: dict) -> list[object]:
    records = ";".join(f"{rec['name']}={rec['value']}" for rec in obj["records"])
    return [obj["q"], obj["upper"], obj["best_lower"] or "", records]


def _summary_line(obj: dict) -> str:
    return f"q={obj['q']} upper={obj['upper']} best_lower={obj['best_lower'] or 'unknown'}\n"


def _cmd_bounds(args: argparse.Namespace) -> Rendering:
    if args.table is None:
        obj = _summary(args.q)
        lines = [f"q {obj['q']}", f"upper {obj['upper']}",
                 f"best_lower {obj['best_lower'] or 'unknown'}",
                 *(f"record {rec['name']} {rec['direction']} {rec['value']}"
                   for rec in obj["records"])]
        return Rendering(_json({"schema": 1, **obj}), [_csv([BOUNDS_HEADER, _summary_row(obj)])],
                         ["\n".join(lines) + "\n"])
    if args.table < 2:
        raise ValidationError(f"--table expects a limit of at least 2, got {args.table}")
    if args.table > TABLE_CAP:
        raise ValidationError(f"--table expects a limit of at most {TABLE_CAP}, got {args.table}")
    # one lazy stream of records; only the chosen format consumes it
    objs = map(_summary, prime_powers_upto(args.table))
    return Rendering(
        _json({"schema": 1, "qmax": args.table,
               "rows": lambda sep: _blocks(objs, lambda block: _dumps(block)[1:-1], sep)}),
        chain([_csv([BOUNDS_HEADER])], _blocks(map(_summary_row, objs), _csv)),
        _blocks(map(_summary_line, objs), "".join),
    )


def _cmd_verify(args: argparse.Namespace) -> Rendering:
    from . import verify  # the largest module, needed by no other command

    results = verify.run_verify(args.scope, args.n_max)
    passed = sum(1 for res in results if res.ok)
    checks = [res._asdict() for res in results]  # scope, name, ok, detail
    lines = [f"[{res.scope}] {res.name} {'PASS' if res.ok else f'FAIL ({res.detail})'}"
             for res in results]
    lines.append(f"{passed}/{len(results)} checks passed")
    return Rendering(
        _json({"schema": 1, "scope": args.scope, "checks": checks,
               "passed": passed, "total": len(results)}),
        [_csv([["scope", "name", "ok", "detail"], *(check.values() for check in checks)])],
        ["\n".join(lines) + "\n"],
        exit_code=0 if passed == len(results) else 1,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpl",
        description="Exact point counts, semigroups, and bounds for curves over finite fields.",
        epilog=EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", metavar="PATH", default=None, help="write output to PATH")

    p = sub.add_parser("points-homma", help="point counts for the recursive projective family")
    p.add_argument("--q", type=int, required=True, help="field size, q > 2")
    p.add_argument("--ell", type=int, required=True, help="ambient dimension, ell >= 2")
    add_common(p)
    p.set_defaults(handler=_cmd_points_homma)

    p = sub.add_parser("gs", help="tower split count, genus, and semigroup verdicts")
    p.add_argument("--q", type=int, required=True, help="subfield size; arithmetic is over q^2")
    p.add_argument("--m", type=int, required=True, help="tower level, m >= 1")
    add_common(p)
    p.set_defaults(handler=_cmd_gs)

    p = sub.add_parser("semigroup", help="Weierstrass semigroup data at the tower's top place")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    add_common(p)
    p.set_defaults(handler=_cmd_semigroup)

    p = sub.add_parser("bounds", help="bound records for one q or a prime-power table")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--q", type=int, help="prime power to summarize")
    group.add_argument("--table", type=int, metavar="QMAX",
                       help=f"tabulate prime powers <= QMAX, 2 <= QMAX <= {TABLE_CAP}")
    add_common(p)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("verify", help="run the named self-verification checks")
    p.add_argument("scope", nargs="?", choices=SCOPES, default="all")
    p.add_argument("--n-max", type=int, default=DEFAULT_N_MAX, dest="n_max",
                   help="scan depth for the convergence checks")
    add_common(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.handler(args)
    except RplError as exc:  # anything else escaping a handler is a bug: a traceback, exit 1
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    pieces = getattr(result, args.format)
    try:
        if args.out is None:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        else:
            with open(args.out, "w", encoding="utf-8") as out:
                out.writelines(pieces)
        return result.exit_code
    except BrokenPipeError:
        code = result.exit_code  # the reader stopped early (`rpl ... | head`): end quietly
    except OSError as exc:  # cannot open, write or close: a full disk, a missing directory
        name = "<stdout>" if args.out is None else args.out
        print(f"error: cannot write {name}: {exc.strerror}", file=sys.stderr)
        code = 2
    if args.out is None:
        # stdout may still hold unwritten text: point it at devnull so the
        # interpreter's last flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
