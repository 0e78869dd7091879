"""Deterministic command-line interface.

Subcommands: points-homma, gs, semigroup, bounds, verify. Each handler
checks its input, then renders only the format --format chose (json,
csv or text), written about 32 KiB at a time as it is rendered; identical
invocations produce byte-identical output. Semigroup generators are
written from their mark bytes a window at a time, and each bound record
as its value between its rule's two ends, built once per stream. Exit
codes: 0 success, 1 a failed verify check (or a bug, shown as a
traceback), 2 a rejected input or a failed write. Each handler imports
the rpl modules it reads, so --help loads none and gs and semigroup load
neither fractions nor decimal; only --format json loads json, and only
--format csv loads csv, for every command but bounds. No command but
verify loads rpl.gf, and verify loads only the scope modules it runs.
The caps on a command's cost (field_cap, capped_conductor, TABLE_CAP and
N_MAX_CAP) live here alone, checked before the work they bound; closed
forms and verify check only the rules of their own domain.
"""

from __future__ import annotations

import argparse
import errno
import gc
import io
import os
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, compress
from math import gcd

from . import DEFAULT_N_MAX, MAX_PRINTED_DIGITS, PRINT_LIMIT, SCOPES, printable_power
from .errors import ValidationError
from .primes import capped_order, factor_prime_power

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
    one join of the suffixes its mark bytes pick from a table.  Only windows
    that hold a marked number are visited, each found by mark.find from the
    last, and a window whose marks and h > 0 equal the last visited one's
    reuses its picks.  Each piece is one window, or its part in one segment:
    a window that a segment edge cuts is written as two pieces with the same h.
    """
    suffixes = [f"{i:03d}" for i in range(1000)]
    skip = len(sep)  # the first window written drops its leading separator
    last = picked = None  # the last visited window's (h > 0, marks), and "" and its picks
    for start, mark in segments:
        i = mark.find(1)
        while i >= 0:
            h, r = divmod(start + i, 1000)
            a = i - r  # window h's edge in mark: each window is copied alone, padded if a < 0
            key = h > 0, bytes(-a) + mark[:a + 1000] if a < 0 else mark[a:a + 1000]
            if key != last:  # h > 0 picks suffixes, window 0 the numbers themselves
                last, picked = key, ["", *compress(suffixes if h else map(str, range(1000)), key[1])]
            yield (sep + str(h or "")).join(picked)[skip:]  # sep and the window, in one join
            skip = 0
            i = mark.find(1, a + 1000)


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
    """obj as one line of json; with items, its last field is their text, separators included."""
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
    the text of items as it comes: the caller writes the separators, ',' in
    json and ';' in csv and text.
    """
    if fmt == "json":
        return _json(fields, items)
    cells = {key: "" if value in (None, []) else value for key, value in list(fields.items())[1:]}
    if fmt == "csv":
        head = "".join(_csv([list(cells), cells.values()]))
    else:
        head = "".join(f"{key} {cell}\n" for key, cell in cells.items() if fields[key] is not None)
    return chain([head[:-1]], items or (), ["\n"])  # the items end just before the final newline


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


def _cmd_points_homma(args: argparse.Namespace) -> Rendering:
    from . import homma_family
    if (q := args.q) > (cap := field_cap()):  # rejected: name the first rule q breaks
        capped_order(*factor_prime_power(q), cap)
    count = homma_family.count_total(q, args.ell)  # validates (q, ell) once
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
    if q * q > (cap := field_cap()):  # F_{q^2} over the cap: name the first rule broken
        p, e = factor_prime_power(q)
        semigroup.check_level(q, m)
        capped_order(p, 2 * e, cap)
    try:
        c = capped_conductor(q, m)
    except ValidationError:  # a q that is not a prime power is named first
        factor_prime_power(q)
        raise
    split = gs_tower.count_split_chains(q, m)  # trial-divides q, the one time an accepted q is
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
        "conductor": c,
        "gap_count": genus,
        "gamma_first": semigroup.smallest_positive(q, m),
        "gamma_last": semigroup.largest_generator(q, m),
        "smallest_ok": verdict,
        "largest_ok": verdict,
    }))


def _cmd_semigroup(args: argparse.Namespace) -> Rendering:
    from . import semigroup
    q, m = args.q, args.m
    c = capped_conductor(q, m)  # before any marking
    return Rendering(_record(args.format, {
        "schema": 1,
        "q": q,
        "m": m,
        "conductor": c,
        "gap_count": semigroup.gap_count(q, m),
        "smallest_positive": semigroup.smallest_positive(q, m),
        "generators": [],
    }, _join_marked(semigroup.generator_marks(q, m), "," if args.format == "json" else ";")))


def _cmd_bounds(args: argparse.Namespace) -> Rendering:
    """Each record is its value's text between its rule's two ends, built once per stream."""
    from . import bounds
    if (qmax := args.table) is not None and not 2 <= qmax <= TABLE_CAP:
        limit = "least 2" if qmax < 2 else f"most {TABLE_CAP}"
        raise ValidationError(f"--table expects a limit of at {limit}, got {qmax}")
    # --q's one row, or one lazy stream of rows, each rendered as soon as it is computed
    rows = [bounds.dq_row(args.q)] if qmax is None else bounds.dq_rows(qmax)
    if (fmt := args.format) == "text" and qmax:  # a line per row, without its records
        return Rendering(f"q={q} upper={records[0][1]} best_lower="
                         f"{'unknown' if best is None else str(records[best][1])}\n"
                         for q, records, best in rows)
    if fmt == "json":
        encode, slot = _encoder(), '"\\u0000"'  # where a "\0" went: no source holds a NUL
    ends = {"json": lambda rule: encode({**rule._asdict(), "value": "\0"}).replace(slot, '"\0"'),
            "csv": lambda rule: f"{rule.name}=\0",
            "text": lambda rule: f"record {rule.name} {rule.direction} \0\n"}[fmt]
    known = {}  # each rule met: its two ends, or for a rule of one value its whole record and None

    def cells(row: tuple) -> tuple[int, str, str | None, list[str]]:
        q, records, best = row
        texts, pieces = [], []
        for rule, value in records:  # the best lower cell reuses its record's text
            head, tail = known.get(rule) or known.setdefault(rule, ends(rule).split("\0") if (
                rule.value is None) else (ends(rule).replace("\0", str(rule.value)), None))
            texts.append(text := str(value))
            pieces.append(head if tail is None else head + text + tail)
        return q, texts[0], None if best is None else texts[best], pieces

    rows = map(cells, rows)
    if fmt == "csv":  # without csv.writer: no cell holds a comma, a quote or a line break
        return Rendering(chain(["q,upper,best_lower,records\n"], (
            f"{q},{upper},{lower or ''},{';'.join(pieces)}\n" for q, upper, lower, pieces in rows)))
    if fmt == "text":
        return Rendering(f"q {q}\nupper {upper}\nbest_lower {lower or 'unknown'}\n{''.join(pieces)}"
                         for q, upper, lower, pieces in rows)
    fields = {"q": "\0", "upper": "\0", "best_lower": "\0", "records": ["\0"]}
    a, b, c, d, e = encode(fields if qmax else {"schema": 1, **fields}).split(slot)
    q, upper, lower, pieces = next(rows)  # --q's one row, or q = 2 first in a table
    out = chain([f"{a}{q}{b}{upper}{c}{encode(lower)}{d}{','.join(pieces)}{e}"], (  # then rows
        f',{a}{q}{b}{upper}{c}"{lower}"{d}{",".join(pieces)}{e}'  # that have a best lower bound
        for q, upper, lower, pieces in rows))
    return Rendering(_json({"schema": 1, "qmax": qmax, "rows": []}, out) if qmax else [*out, "\n"])


def _cmd_verify(args: argparse.Namespace) -> Rendering:
    if args.n_max > N_MAX_CAP:
        raise ValidationError(f"n_max must be <= {N_MAX_CAP}, got {args.n_max}")
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
            try:
                fd = sys.stdout.fileno()
            except io.UnsupportedOperation:  # an in-process stream: no final flush reaches it
                return code
            # stdout may hold unwritten text: point fd at devnull so the final flush cannot fail
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return code
    finally:
        if caller is not None:
            sys.set_int_max_str_digits(caller)


def run() -> None:
    """main() ending its process: gc.freeze() on the way out spares finalization's collections."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
