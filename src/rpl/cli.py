"""Deterministic command-line interface.

Subcommands: points-homma, gs, semigroup, bounds, verify. Every command
renders to json, csv, or text; identical invocations produce byte-identical
output. Exit codes: 0 success, 1 computation or check failure, 2 validation
error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import TextIO

from . import DEFAULT_N_MAX, SCOPES, bounds, gs_tower, homma_family, semigroup
from .errors import RplError
from .gf import DEFAULT_FIELD_CAP, FIELD_CAP_ENV, prime_powers_upto

EPILOG = (
    f"The environment variable {FIELD_CAP_ENV} lowers the field-size cap "
    f"(default 2^20 = {DEFAULT_FIELD_CAP}); values above the default or "
    "malformed values are ignored."
)
BLOCK = 1 << 16  # items of a streamed field joined per write


@dataclass
class Rendering:
    json_obj: dict
    csv_header: list[str]
    csv_rows: list[list[object]]
    text_lines: list[str]
    exit_code: int = 0
    tail: Iterator[int] | None = None  # a record's last field, streamed by _write


def _record(obj: dict) -> Rendering:
    """Render a one-record JSON object as a csv row and text lines, after "schema".

    None becomes an empty cell and no text line; a tuple is joined with ';'.
    An iterator as the last field becomes the tail, rendered here as ().
    """
    *_, last = obj
    tail = obj[last] if isinstance(obj[last], Iterator) else None
    if tail is not None:
        obj[last] = ()
    header = list(obj)[1:]
    row = [
        "" if obj[key] is None
        else ";".join(map(str, obj[key])) if isinstance(obj[key], tuple)
        else obj[key]
        for key in header
    ]
    lines = [f"{key} {cell}" for key, cell in zip(header, row) if obj[key] is not None]
    return Rendering(obj, header, [row], lines, tail=tail)


def _cmd_points_homma(args: argparse.Namespace) -> Rendering:
    count = homma_family.count_total(args.q, args.ell)
    degree = homma_family.curve_degree(args.q, args.ell)
    return _record({
        "schema": 1,
        "affine": count.affine,
        "infinity": count.infinity,
        "total": count.total,
        "degree": degree,
        "ratio": str(Fraction(count.total, degree)),
    })


def _cmd_gs(args: argparse.Namespace) -> Rendering:
    q, m = args.q, args.m
    split = gs_tower.count_split_chains(q, m)
    c = semigroup.capped_conductor(q, m)
    genus = gs_tower.genus(q, m)
    # the generator bounds hold for every m >= 2; verify semigroup certifies them
    verdict = True if m >= 2 else None
    return _record({
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
    })


def _cmd_semigroup(args: argparse.Namespace) -> Rendering:
    q, m = args.q, args.m
    gens = semigroup.minimal_generators(q, m)  # validates and checks the cap
    return _record({
        "schema": 1,
        "q": q,
        "m": m,
        "conductor": semigroup.conductor(q, m),
        "gap_count": semigroup.gap_count(q, m),
        "smallest_positive": semigroup.smallest_positive(q, m),
        "generators": gens,
    })


def _summary_fields(q: int) -> tuple[dict, list[object], list[str]]:
    summary = bounds.dq_summary(q)
    upper = int(summary.upper)
    best = "" if summary.best_lower is None else str(summary.best_lower)
    records = [
        {
            "name": rec.name,
            "direction": rec.direction,
            "value": str(rec.value),
            "source": rec.source,
        }
        for rec in summary.records
    ]
    obj = {
        "q": q,
        "upper": upper,
        "best_lower": str(summary.best_lower) if summary.best_lower is not None else None,
        "records": records,
    }
    joined = ";".join(f"{rec['name']}={rec['value']}" for rec in records)
    row = [q, upper, best, joined]
    lines = [f"q {q}", f"upper {upper}", f"best_lower {best or 'unknown'}"]
    lines += [f"record {rec['name']} {rec['direction']} {rec['value']}" for rec in records]
    return obj, row, lines


def _cmd_bounds(args: argparse.Namespace) -> Rendering:
    header = ["q", "upper", "best_lower", "records"]
    if args.table is not None:
        if args.table < 2:
            raise ValueError(f"--table expects a limit of at least 2, got {args.table}")
        rows = []
        objs = []
        lines = []
        for q in prime_powers_upto(args.table):
            obj, row, _ = _summary_fields(q)
            objs.append(obj)
            rows.append(row)
            lines.append(f"q={q} upper={row[1]} best_lower={row[2] or 'unknown'}")
        return Rendering({"schema": 1, "qmax": args.table, "rows": objs}, header, rows, lines)
    obj, row, lines = _summary_fields(args.q)
    return Rendering({"schema": 1, **obj}, header, [row], lines)


def _cmd_verify(args: argparse.Namespace) -> Rendering:
    from . import verify  # the largest module, needed by no other command

    results = verify.run_verify(args.scope, args.n_max)
    passed = sum(1 for res in results if res.ok)
    obj = {
        "schema": 1,
        "scope": args.scope,
        "checks": [
            {"scope": res.scope, "name": res.name, "ok": res.ok, "detail": res.detail}
            for res in results
        ],
        "passed": passed,
        "total": len(results),
    }
    header = ["scope", "name", "ok", "detail"]
    rows = [[res.scope, res.name, res.ok, res.detail] for res in results]
    lines = []
    for res in results:
        status = "PASS" if res.ok else f"FAIL ({res.detail})"
        lines.append(f"[{res.scope}] {res.name} {status}")
    lines.append(f"{passed}/{len(results)} checks passed")
    return Rendering(obj, header, rows, lines, exit_code=0 if passed == len(results) else 1)


def _write(result: Rendering, fmt: str, out: TextIO) -> None:
    """Write result to out in fmt, its tail in blocks of BLOCK items."""
    if fmt == "json":
        head = json.dumps(result.json_obj, separators=(",", ":")) + "\n"
    elif fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(result.csv_header)
        writer.writerows(result.csv_rows)
        head = buffer.getvalue()
    else:
        head = "\n".join(result.text_lines) + "\n"
    if result.tail is not None:
        # the tail is the last field, so it ends just before the closing
        # "]}\n" of json and the final newline of csv and text
        cut = len(head) - (3 if fmt == "json" else 1)
        sep = "," if fmt == "json" else ";"
        out.write(head[:cut])
        lead = ""
        while block := sep.join(map(str, islice(result.tail, BLOCK))):
            out.write(lead + block)
            lead = sep
        head = head[cut:]
    out.write(head)


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
    group.add_argument("--table", type=int, metavar="QMAX", help="tabulate prime powers <= QMAX")
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
    except RplError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out is None:
        try:
            _write(result, args.format, sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader stopped early (`rpl ... | head`): end quietly, and
            # point stdout at devnull so the interpreter's last flush cannot fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    else:
        with open(args.out, "w", encoding="utf-8") as out:
            _write(result, args.format, out)
    return result.exit_code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
