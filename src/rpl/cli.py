"""Deterministic command-line interface.

Subcommands: points-homma, gs, semigroup, bounds, verify. Each handler
validates its input, then renders only the format --format chose (json,
csv or text), written about 32 KiB at a time as it is rendered; identical
invocations produce byte-identical output. The semigroup generators are
marked a segment at a time and written straight from their mark bytes a
window [1000h, 1000h + 1000) at a time, without an int per generator;
equal windows share one memo of their picks. Exit codes: 0 success, 1 a
failed verify check (or a bug, shown as a traceback), 2 a rejected input
or a failed write. Each handler imports the rpl modules it reads, so
--help loads none and gs and semigroup load neither fractions nor decimal;
only --format json loads json and only --format csv loads csv. No command
but verify loads rpl.gf, and verify loads only the scope modules it runs.
"""

from __future__ import annotations

import argparse
import errno
import io
import os
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, compress
from math import gcd

from . import DEFAULT_N_MAX, MAX_PRINTED_DIGITS, N_MAX_CAP, SCOPES
from .errors import ValidationError
from .primes import DEFAULT_FIELD_CAP, FIELD_CAP_ENV

EPILOG = (
    f"The environment variable {FIELD_CAP_ENV} lowers the field-size cap "
    f"(default 2^20 = {DEFAULT_FIELD_CAP}); values above the default or "
    "malformed values are ignored."
)
MEMO_WINDOWS = 64  # distinct window marks _join_marked keeps at once
# --table limit: a fresh table at 10^7 took 10.5 s in json, 6.5 s in csv and 4.4 s in
# text (medians of 3 runs on a 2-vCPU Intel Xeon, Python 3.11.7)
TABLE_CAP = 10_000_000
WRITE_CHARS = 1 << 15  # pieces are joined into writes of at least this many characters


class Rendering(namedtuple("Rendering", "pieces exit_code", defaults=(0,))):
    """A command's output in the chosen format, as pieces of text written in order.

    A handler renders only args.format, after it has validated its input;
    a streamed part is rendered a window of generators or a table row at a
    time, as the pieces are written.
    """

    __slots__ = ()


def _join_marked(segments: Iterable[tuple[int, bytes]], sep: str) -> Iterator[str]:
    """sep.join(map(str, ns)), in pieces, for the numbers ns marked in segments (start, mark).

    A segment marks n at mark[n - start], each starting where the one before
    it ended, and no int is made per marked number.  n-space is cut into
    windows [1000h, 1000h + 1000): a marked number there is str(h) followed
    by a three-digit suffix (for h = 0, just str(n)), so a window's text is
    one join of the suffixes its mark bytes pick from a table.  Marks repeat
    from window to window, so the picks are memoized across segments, keyed
    by the window's marks and whether h > 0, and cleared at MEMO_WINDOWS
    entries.  Each piece is one window, or its part in one segment: a window
    that a segment edge cuts is written as two pieces with the same h.
    """
    suffixes = [f"{i:03d}" for i in range(1000)]
    skip = len(sep)  # the first window written drops its leading separator
    memo = {}  # (h > 0, window marks) -> "" and the suffixes they pick
    for start, mark in segments:
        for h, a in enumerate(range(-(start % 1000), len(mark), 1000), start // 1000):
            # a window at a time, never all of mark; the first is padded to its edge
            key = h > 0, bytes(-a) + mark[:a + 1000] if a < 0 else bytes(mark[a:a + 1000])
            if (picked := memo.get(key)) is None:
                if len(memo) == MEMO_WINDOWS:
                    memo.clear()
                table = suffixes if h else map(str, range(1000))  # built on a miss at h = 0 only
                picked = memo[key] = ["", *compress(table, key[1])]
            if len(picked) > 1:
                prefix = str(h or "")  # window 0 has no prefix
                yield (sep + prefix).join(picked)[skip:]  # sep and the window, in one join
                skip = 0


def _write(stream: io.TextIOBase, pieces: Iterable[str]) -> None:
    """stream.writelines(pieces), joining pieces until WRITE_CHARS characters are held."""
    held, size = [], 0
    for piece in pieces:
        held.append(piece)
        if (size := size + len(piece)) >= WRITE_CHARS:
            stream.write("".join(held))
            held, size = [], 0
    if size:
        stream.write("".join(held))


def _encoder() -> Callable[[object], str]:
    """A compact JSON encoder's encode; build one per stream, not one per object."""
    import json  # only json output pays for it
    return json.JSONEncoder(separators=(",", ":")).encode


def _json(obj: dict, items: Iterable[str] | None = None) -> Iterable[str]:
    """obj as one line of json; with items, its last field lists their text, joined by ','."""
    text = _encoder()(obj)
    return [text + "\n"] if items is None else chain([text[:-2]], items, ["]}\n"])


def _csv(rows: Iterable[Iterable[object]]) -> Iterator[str]:
    """rows as csv lines, one piece per row, from one csv writer."""
    import csv  # only csv output pays for it
    # writerow returns what its file's write returns: here str, the line itself
    return map(csv.writer(argparse.Namespace(write=str), lineterminator="\n").writerow, rows)


def _record(fmt: str, fields: dict, items: Iterable[str] | None = None) -> Iterable[str]:
    """One JSON object in fmt: as json, or after "schema" as a csv row under its
    header or as text lines.  None and the empty list become an empty cell, and
    None no text line.  With items, the last field is an empty list filled by
    the text of items, elements joined by ',' in json and ';' in csv and text.
    """
    if fmt == "json":
        return _json(fields, items)
    cells = {key: "" if value in (None, []) else value for key, value in list(fields.items())[1:]}
    if fmt == "csv":
        head = "".join(_csv([list(cells), cells.values()]))
    else:
        head = "".join(f"{key} {cell}\n" for key, cell in cells.items() if fields[key] is not None)
    return chain([head[:-1]], items or (), ["\n"])  # the items end just before the final newline


def _ratio(a: int, b: int) -> str:
    """str(Fraction(a, b)) for positive a and b, without loading fractions."""
    g = gcd(a, b)
    return str(a // g) if b == g else f"{a // g}/{b // g}"


def _cmd_points_homma(args: argparse.Namespace) -> Rendering:
    from . import homma_family
    count = homma_family.count_total(args.q, args.ell)  # validates (q, ell) once
    return Rendering(_record(args.format, {
        "schema": 1,
        "affine": count.affine,
        "infinity": count.infinity,
        "total": count.total,
        "degree": count.infinity,  # the points at infinity number the degree
        "ratio": _ratio(count.total, count.infinity),
    }))


def _cmd_gs(args: argparse.Namespace) -> Rendering:
    from . import gs_tower, semigroup
    q, m = args.q, args.m
    split = gs_tower.count_split_chains(q, m)  # validates q and m, and checks both caps
    genus = semigroup.gap_count(q, m)
    # the generator bounds hold for every m >= 2 (Pellikaan-Stichtenoth-Torres
    # 1998); verify semigroup certifies them for q in 2..5 with c_m <= 10^6
    verdict = True if m >= 2 else None
    return Rendering(_record(args.format, {
        "schema": 1,
        "q": q,
        "m": m,
        "genus": genus,
        "split": split,
        "conductor": semigroup.conductor(q, m),
        "gap_count": genus,
        "gamma_first": semigroup.smallest_positive(q, m),
        "gamma_last": semigroup.largest_generator(q, m),
        "smallest_ok": verdict,
        "largest_ok": verdict,
    }))


def _cmd_semigroup(args: argparse.Namespace) -> Rendering:
    from . import semigroup
    q, m = args.q, args.m
    segments = semigroup.generator_marks(q, m)  # validates and checks the cap
    return Rendering(_record(args.format, {
        "schema": 1,
        "q": q,
        "m": m,
        "conductor": semigroup.conductor(q, m),
        "gap_count": semigroup.gap_count(q, m),
        "smallest_positive": semigroup.smallest_positive(q, m),
        "generators": [],
    }, _join_marked(segments, "," if args.format == "json" else ";")))


BOUNDS_HEADER = ["q", "upper", "best_lower", "records"]


def _summary(summary: bounds.DqSummary) -> dict:
    """A bounds record as a JSON object; only json output builds one."""
    return {
        "q": summary.q,
        "upper": int(summary.records[0].value),
        "best_lower": None if summary.best_lower is None else str(summary.best_lower),
        "records": [{**rec._asdict(), "value": str(rec.value)} for rec in summary.records],
    }


def _summary_row(summary: bounds.DqSummary) -> list[object]:
    first, *lower = summary.records
    upper = str(first.value)  # formatted once for both cells
    records = ";".join([f"{first.name}={upper}", *(f"{rec.name}={rec.value}" for rec in lower)])
    return [summary.q, upper, summary.best_lower or "", records]


def _summary_line(summary: bounds.DqSummary) -> str:
    best = summary.best_lower or "unknown"
    return f"q={summary.q} upper={summary.records[0].value} best_lower={best}\n"


def _cmd_bounds(args: argparse.Namespace) -> Rendering:
    from . import bounds
    if args.table is None:
        summary = bounds.dq_summary(args.q)
        if args.format == "json":
            return Rendering(_json({"schema": 1, **_summary(summary)}))
        if args.format == "csv":
            return Rendering(_csv([BOUNDS_HEADER, _summary_row(summary)]))
        lines = "".join(f"record {rec.name} {rec.direction} {rec.value}\n"
                        for rec in summary.records)
        return Rendering([f"q {summary.q}\nupper {summary.records[0].value}\n"
                          f"best_lower {summary.best_lower or 'unknown'}\n{lines}"])
    if args.table < 2:
        raise ValidationError(f"--table expects a limit of at least 2, got {args.table}")
    if args.table > TABLE_CAP:
        raise ValidationError(f"--table expects a limit of at most {TABLE_CAP}, got {args.table}")
    # one lazy stream of records, each row becoming one piece of text as soon as it is computed
    summaries = bounds.dq_table(args.table)
    if args.format == "json":
        rows = map(_encoder(), map(_summary, summaries))
        rows = chain([next(rows)], map(",".__add__, rows))  # q = 2 is always the first row
        return Rendering(_json({"schema": 1, "qmax": args.table, "rows": []}, rows))
    if args.format == "csv":
        return Rendering(_csv(chain([BOUNDS_HEADER], map(_summary_row, summaries))))
    return Rendering(map(_summary_line, summaries))


def _cmd_verify(args: argparse.Namespace) -> Rendering:
    from . import verify  # needed by no other command; it loads each scope as it runs
    results = verify.run_verify(args.scope, args.n_max)
    passed = sum(1 for res in results if res.ok)
    if args.format == "json":
        pieces = _json({"schema": 1, "scope": args.scope,
                        "checks": [res._asdict() for res in results],  # scope, name, ok, detail
                        "passed": passed, "total": len(results)})
    elif args.format == "csv":
        pieces = _csv([verify.CheckResult._fields, *results])
    else:
        pieces = [*(f"[{res.scope}] {res.name} {'PASS' if res.ok else f'FAIL ({res.detail})'}\n"
                    for res in results), f"{passed}/{len(results)} checks passed\n"]
    return Rendering(pieces, exit_code=0 if passed == len(results) else 1)


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
                   help=f"scan depth for the convergence checks, 2 <= N_MAX <= {N_MAX_CAP} "
                        f"(default {DEFAULT_N_MAX})")
    add_common(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    # the print checks admit MAX_PRINTED_DIGITS digits; str() must too, whatever
    # PYTHONINTMAXSTRDIGITS says (Python before 3.10.7 has no such limit)
    caller = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if caller is not None:
        sys.set_int_max_str_digits(MAX_PRINTED_DIGITS)
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        try:
            result = args.handler(args)
        except ValidationError as exc:  # any other error escaping is a bug: a traceback, exit 1
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            if args.out is None:
                if sys.stdout is None:  # fd 1 was closed when the interpreter started
                    raise OSError(errno.EBADF, os.strerror(errno.EBADF))
                _write(sys.stdout, result.pieces)
                sys.stdout.flush()
            else:
                with open(args.out, "w", encoding="utf-8") as out:
                    _write(out, result.pieces)
            return result.exit_code
        except BrokenPipeError:
            code = result.exit_code  # the reader stopped early (`rpl ... | head`): end quietly
        except OSError as exc:  # cannot open, write or close: a full disk, a missing directory
            name = "<stdout>" if args.out is None else args.out
            print(f"error: cannot write {name}: {exc.strerror}", file=sys.stderr)
            code = 2
        if args.out is None and sys.stdout is not None:
            # stdout may hold unwritten text: point it at devnull so the final flush cannot fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    finally:
        if caller is not None:
            sys.set_int_max_str_digits(caller)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
