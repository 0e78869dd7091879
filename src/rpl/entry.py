"""The process side of the command line: it parses a line by rpl.cli's table of commands, runs
the handler and writes its Rendering about 32 KiB at a time; only --help, usage errors and the
spellings only argparse takes import argparse. It never imports rpl.cli, which runs as __main__
under `python -m rpl.cli`. Without cached bytecode a command's peak RSS is set by the largest
module it compiles, so the commands and this plumbing are two modules (README's Start-up)."""

from __future__ import annotations

import errno
import gc
import io
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from itertools import chain

from . import MAX_PRINTED_DIGITS
from .errors import ValidationError

WRITE_CHARS = 1 << 15  # pieces are joined into writes of at least this many characters
Namespace = type(sys.implementation)  # types.SimpleNamespace, without importing types


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


def encoder() -> Callable[[object], str]:
    """A compact JSON encoder's encode; build one per stream, not one per object."""
    import json  # only json output pays for it
    return json.JSONEncoder(separators=(",", ":")).encode


def json_line(obj: dict, items: Iterable[str] | None = None) -> Iterable[str]:
    """obj as one line of json; with items, its last field is their text, separators included."""
    text = encoder()(obj)
    return [text + "\n"] if items is None else chain([text[:-2]], items, ["]}\n"])


def csv_lines(rows: Iterable[Iterable[object]]) -> Iterator[str]:
    """rows as csv lines, one piece per row, from one csv writer."""
    import csv  # only csv output pays for it
    # writerow returns what its file's write returns: here str, the line itself
    return map(csv.writer(Namespace(write=str), lineterminator="\n").writerow, rows)


def record(fmt: str, fields: dict, items: Iterable[str] | None = None) -> Iterable[str]:
    """One JSON object in fmt: as json, or after "schema" as a csv row under its
    header or as text lines.  None and the empty list become an empty cell, and
    None no text line.  With items, the last field is an empty list filled by
    the text of items as it comes: the caller writes the separators, ',' in
    json and ';' in csv and text.
    """
    if fmt == "json":
        return json_line(fields, items)
    cells = {key: "" if value in (None, []) else value for key, value in list(fields.items())[1:]}
    if fmt == "csv":
        head = "".join(csv_lines([list(cells), cells.values()]))
    else:
        head = "".join(f"{key} {cell}\n" for key, cell in cells.items() if fields[key] is not None)
    return chain([head[:-1]], items or (), ["\n"])  # the items end just before the final newline


def _build_parser(commands: dict, common: dict, epilog: str):
    import argparse  # only --help, usage errors and the spellings _parse leaves to it load it
    parser = argparse.ArgumentParser(prog="rpl", epilog=epilog, description=(
        "Exact point counts, semigroups, and bounds for curves over finite fields."))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in commands.items():
        p = sub.add_parser(name, help=command.help)
        group = p.add_mutually_exclusive_group(required=True) if command.one_of else p
        for flag, kwargs in command.options.items():
            group.add_argument(flag, **kwargs)
        for flag, kwargs in common.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=command.handler)
    return parser


def _parse(argv: list[str], commands: dict, common: dict) -> Namespace | None:
    """What argparse's parser gives argv, when argv is CMD [SCOPE] (--flag VALUE)* with each flag
    spelled in full and given once and no VALUE starting with '-'; None for any other line."""
    if not argv or (command := commands.get(argv[0])) is None:
        return None
    options, given, tokens = {**command.options, **common}, {}, argv[1:]
    first = next(iter(options))  # a positional has no dashes: verify's scope
    if first[0] != "-" and tokens[:1] and tokens[0][:1] != "-":
        given[first], *tokens = tokens
    for flag, value in zip(tokens[::2], tokens[1::2]):
        if flag[:2] != "--" or flag not in options or flag in given or value[:1] == "-":
            return None  # an abbreviation, --flag=VALUE, -h, --, a repeat, a value like -3
        given[flag] = value
    if len(tokens) % 2 or command.one_of and len(given.keys() & command.options.keys()) != 1:
        return None
    args = {"command": argv[0], "handler": command.handler}
    for flag, kwargs in options.items():
        if flag not in given:
            if kwargs.get("required"):
                return None
            value = kwargs.get("default")
        elif "type" in kwargs:
            try:
                value = kwargs["type"](given[flag])
            except ValueError:  # argparse's usage error names it
                return None
        elif (value := given[flag]) not in kwargs.get("choices", [value]):
            return None
        args[flag.lstrip("-").replace("-", "_")] = value  # argparse's dest
    return Namespace(**args)


def main(argv: list[str] | None, commands: dict, common: dict, epilog: str) -> int:
    """Run argv's command from the table commands, with the options in common; its exit code."""
    # the print checks admit MAX_PRINTED_DIGITS digits; str() must too, whatever
    # PYTHONINTMAXSTRDIGITS says (Python before 3.10.7 has no such limit)
    caller = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if caller is not None:
        sys.set_int_max_str_digits(MAX_PRINTED_DIGITS)
    try:
        if (args := _parse(sys.argv[1:] if argv is None else argv, commands, common)) is None:
            args = _build_parser(commands, common, epilog).parse_args(argv, Namespace())
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
            return result.exit_code  # the reader stopped early (`rpl ... | head`): end quietly
        except OSError as exc:  # cannot open, write or close: a full disk, a missing directory
            name = "<stdout>" if args.out is None else args.out
            print(f"error: cannot write {name}: {exc.strerror}", file=sys.stderr)
            return 2
    finally:
        if caller is not None:
            sys.set_int_max_str_digits(caller)


def run(main: Callable[[], int]) -> None:
    """main() ending its process: gc.freeze() on the way out spares finalization's collections,
    and a stdout main() could not write is pointed at devnull, so the final flush cannot fail."""
    try:
        code = main()
        try:
            if sys.stdout is not None:
                sys.stdout.flush()
        except OSError:  # a reader that stopped early, a full disk: main() has answered it
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        sys.exit(code)
    finally:
        gc.freeze()
