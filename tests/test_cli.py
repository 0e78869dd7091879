"""CLI dispatch, output formats, determinism, and exit codes."""

import argparse
import ast
import hashlib
import io
import json
import os
import random
import re
import stat
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import compress, pairwise
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import parity
from rpl import (MAX_PRINTED_DIGITS, SCOPES, bounds, cli, entry, gf, homma_family, primes,
                 semigroup, streams)
from rpl.errors import ValidationError, bounded
from rpl.verify import CheckResult, ComputationError
from rpl.verify import bounds as verify_bounds, semigroup as verify_semigroup


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("row", parity.cases(rejected=True))
def test_cli_rejections(row):
    # every rejected input takes one path: exit 2, nothing on stdout, one
    # stderr line (an argparse usage error: the usage, then one line)
    parity.check_row(row)


def test_bound_cuts_no_parity_stderr():
    # every stderr the corpus pins, usage lines and all, prints whole under the bound
    assert [row.line for row in parity.ROWS if bounded(row.stderr) != row.stderr] == []


# each integer option, the others valid, with the rules that 10^3999 and -10^3999 break; no
# value needs trial division, as a large odd q would (ROADMAP item 3)
LONG_VALUES = [
    ("points-homma --q {} --ell 2", "is not a prime power", "is not a prime power"),
    ("points-homma --q 3 --ell {}", "at most 4300 can be printed", "ell must be >= 2"),
    ("gs --q {} --m 2", "is not a prime power", "is not a prime power"),
    ("gs --q 2 --m {}", "exceeds the bitmap cap", "m must be >= 1"),
    ("semigroup --q {} --m 2", "exceeds the bitmap cap", "q must be >= 2"),
    ("semigroup --q 2 --m {}", "exceeds the bitmap cap", "m must be >= 1"),
    ("bounds --q {}", "is not a prime power", "is not a prime power"),
    ("bounds --table {}", "a limit of at most", "a limit of at least"),
    ("verify --n-max {}", "n_max must be <=", "n_max must be >="),
]


@pytest.mark.parametrize("tokens, rule", [
    *(pytest.param(line.format(value).split(), rule, id=line.format(name))
      for line, *rules in LONG_VALUES
      for value, name, rule in zip((10**3999, -10**3999, "9" * 10**6),
                                   ("10^3999", "-10^3999", "9*10^6"), (*rules, "invalid int value"))),
    pytest.param(["verify", "z" * 10**6], "invalid choice", id="verify z*10^6"),
    pytest.param(["gs", "--q", "2", "--m", "2", *["x"] * 10**5], "unrecognized arguments",
                 id="gs --q 2 --m 2 x*10^5"),
])
def test_long_input_gets_a_bounded_rejection(capsys, tokens, rule):
    # a rule's message or argparse's echoes the input, cut to the 512 characters README's
    # "Exit codes" states; what follows argparse's usage lines is one line, the rule still in it
    try:
        code = cli.main(tokens)
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    out, err = capsys.readouterr()
    *usage, last = err.splitlines()
    assert (code, out) == (2, "")
    assert all(line.startswith(("usage: rpl", " ")) for line in usage), err
    message = last.split("error: ", 1)[1]
    assert len(message) <= 512 and rule in message, last


PARSER = entry._build_parser(cli.COMMANDS, cli.COMMON, cli.EPILOG)


def both_parses(tokens):
    """vars() of entry._parse(tokens) and of argparse's parse, as main() makes them, each None
    where its parser declines or exits; both under main()'s int-to-str limit."""
    caller = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if caller is not None:
        sys.set_int_max_str_digits(MAX_PRINTED_DIGITS)
    try:
        strict = entry._parse(tokens, cli.COMMANDS, cli.COMMON)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                full = vars(PARSER.parse_args(tokens, entry.Namespace()))
            except SystemExit:  # --help, a usage error
                full = None
    finally:
        if caller is not None:
            sys.set_int_max_str_digits(caller)
    return None if strict is None else vars(strict), full


# the parity lines argparse takes and entry._parse leaves to it: a flag=value, an
# abbreviation, a repeat, a scope after an option, and values that start with '-'
ARGPARSE_ONLY = {"gs --q=16 --m 3", "gs --fo json --q 2 --m 3", "gs --q 9 --q 16 --m 3",
                 "verify --format json homma", "gs --q -3 --m 2", "bounds --table -5"}


def test_strict_parser_agrees_on_every_parity_line(tmp_path):
    # where the one-pass parser answers, its namespace is argparse's, handler included;
    # it answers every parity line argparse takes but ARGPARSE_ONLY
    left = set()
    for row in parity.ROWS:
        strict, full = both_parses(parity.argv(row.line, str(tmp_path)))
        assert strict is None or strict == full, row.line
        if strict is None and full is not None:
            left.add(row.line)
    assert left == ARGPARSE_ONLY


FLAGS = sorted({flag for command in cli.COMMANDS.values()
                for flag in {**command.options, **cli.COMMON} if flag[0] == "-"})
# ints negative, underscored, in Unicode digits, padded, past 4300 digits or malformed
INTS = ["16", "3", "2", "5", "9", "1_000", "\u0661\u0666", " 7 ", "-3", "9" * 4301, "0x10", ""]
# each flag in full and abbreviated, --flag=VALUE, --, -h, command names, the positional's name,
# scopes and choices (a list in a fixed order, so that the derandomized draws repeat)
WORDS = [*FLAGS, *sorted({flag[:n] for flag in FLAGS for n in range(3, len(flag))}),
         "--format=json", "--q=16", "--fo=csv", "--", "-", "-h", "--help", *cli.COMMANDS, "scope",
         *SCOPES, "json", "xml", *INTS, "out.txt"]
TOKEN = st.one_of(st.sampled_from(WORDS), st.text(max_size=3))  # text: junk


@st.composite
def command_lines(draw):
    """A command and most of its options in any order, each with a value of its kind, then
    a token replaced by another now and then, and now and then one more token."""
    now_and_then = st.sampled_from([False] * 15 + [True])
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    options = {**cli.COMMANDS[name].options, **cli.COMMON}
    tokens = [name]
    for flag in draw(st.permutations(list(options))):
        if draw(st.sampled_from([True] * 7 + [False])):
            kwargs = options[flag]  # a value of its kind: one of its choices, an int, or a word
            value = draw(st.sampled_from(kwargs.get("choices") or
                                         (INTS if "type" in kwargs else WORDS)))
            tokens += [flag, value] if flag[0] == "-" else [value]
    tokens = [draw(TOKEN) if draw(now_and_then) else token for token in tokens]
    return tokens + ([draw(TOKEN)] if draw(now_and_then) else [])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(command_lines())
@example(["verify", "--format", "json", "scope", "gs"])  # the positional named as a flag
def test_strict_parser_agrees_with_argparse(tokens):
    # where the one-pass parser answers, its namespace is argparse's, handler included;
    # so where argparse exits, it has declined
    strict, full = both_parses(tokens)
    assert strict is None or strict == full


def test_table_limit_admits_ten_million(monkeypatch, capsys):
    # a table at 10^7 takes seconds (TABLE_CAP's comment); with no prime powers
    # to render, only the limit is tested
    monkeypatch.setattr(bounds, "prime_powers", lambda qmax: iter(()))
    header = "q,upper,best_lower,records\n"
    assert run_cli(capsys, "bounds", "--table", "10000000", "--format", "csv") == (0, header, "")
    assert run_cli(capsys, "bounds", "--table", "10000001", "--format", "csv") == (
        2, "", "error: --table expects a limit of at most 10000000, got 10000001\n")


def test_bound_records_are_encoded_once_per_kind(monkeypatch):
    # json encodes each record kind (all of a record but its value), the row's
    # frame and a table's header once per stream, never an object per row; csv
    # and text never call the encoder
    objects = []
    encoder = entry.encoder

    def counted():
        encode = encoder()
        return lambda obj: (isinstance(obj, dict) and objects.append(obj)) or encode(obj)

    def kinds(summaries):
        return {(rec.name, rec.direction, rec.source) for s in summaries for rec in s.records}

    # streams.bound_rows calls the encoder it imported, and entry.json_line, which frames
    # a table, entry's own: both are counted
    for module in (streams, entry):
        monkeypatch.setattr(module, "encoder", counted)
    parity.check_row(parity.row("bounds --table 100000 --format json"))
    table_kinds = kinds(bounds.dq_table(100_000))
    assert len(table_kinds) == 10  # six of them half-table records, by their references
    assert 0 < len(objects) <= len(table_kinds) + 2
    for q in (9, 32768):  # one row: its own kinds (square-tower, odd-power) and the row frame
        objects.clear()
        parity.check_row(parity.row(f"bounds --q {q} --format json"))
        assert len(objects) <= len(kinds([bounds.dq_summary(q)])) + 1 == 4, q

    def refused():
        raise AssertionError("a csv or text bound row called the json encoder")

    for module in (streams, entry):
        monkeypatch.setattr(module, "encoder", refused)
    for line in ("bounds --table 4096 --format csv", "bounds --table 100000", "bounds --q 9",
                 "bounds --q 4", "bounds --q 1048576 --format csv"):
        parity.check_row(parity.row(line))


def test_bound_rows_format_each_value_once(monkeypatch):
    # a record's value is formatted once, for its piece, and the upper and
    # best_lower cells reuse the texts of the records that hold them
    summaries = list(bounds.dq_table(1000))
    calls = []
    to_str = Fraction.__str__
    monkeypatch.setattr(Fraction, "__str__", lambda self: calls.append(self) or to_str(self))
    assert json.loads(_bounds_output("json", table=1000))["qmax"] == 1000
    assert 0 < len(calls) <= sum(len(s.records) for s in summaries)


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_hold(capsys):
    # every `$ rpl ...` line in README's sh blocks writes the text under it
    # (for output elided with `...`, its first and last lines), and every
    # line of the Library block equals the value its comment leads with
    text = README.read_text()
    shell = "\n".join(re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S))
    examples = re.findall(r"^\$ rpl (.*)\n((?:.+\n)*)", shell, re.M)
    assert [line for line, _ in examples] == [
        "points-homma --q 3 --ell 3 --format json", "gs --q 2 --m 4", "semigroup --q 3 --m 2",
        "bounds --q 9", "bounds --table 8 --format csv", "verify all"]
    for line, expected in examples:
        code, out, err = run_cli(capsys, *line.split())
        assert (code, err) == (0, ""), line
        if "\n...\n" in expected:
            want, got = expected.splitlines(), out.splitlines()
            assert [got[0], got[-1]] == [want[0], want[-1]], line
        else:
            assert out == expected, line
    [library] = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    namespace, compared = {}, 0
    for line in library.splitlines():
        code, _, comment = line.partition("#")
        if not comment:
            exec(code, namespace)  # the imports
            continue
        value = ast.parse(comment.strip(), mode="eval").body
        leading = value.left if isinstance(value, ast.Compare) else value  # `9 == genus`: 9
        assert eval(code, namespace) == eval(ast.unparse(leading), namespace), line
        compared += 1
    assert compared == 7


def test_points_homma_validates_once(monkeypatch, capsys):
    calls = []
    check = homma_family._check_family_params

    def counting(q, ell):
        calls.append((q, ell))
        return check(q, ell)

    monkeypatch.setattr(homma_family, "_check_family_params", counting)
    code, out, _ = run_cli(capsys, "points-homma", "--q", "9", "--ell", "6")
    assert code == 0
    assert out == "affine 8\ninfinity 32768\ntotal 32776\ndegree 32768\nratio 4097/4096\n"
    assert calls == [(9, 6)]


def test_commands_trial_divide_q_in_rule_order(monkeypatch, capsys):
    # gs and points-homma factor q as their first rule and the closed form factors it again: an
    # accepted q is trial-divided twice, a rejected one at most once, and q < 2 not at all
    calls = []
    smallest = primes._smallest_factor
    monkeypatch.setattr(primes, "_smallest_factor", lambda n: calls.append(n) or smallest(n))
    rejected = ["gs --q 2048 --m 1", "gs --q 1048583 --m 1", "gs --q 4 --m 0", "gs --q 6 --m 100",
                "gs --q 1000 --m 3", "gs --q 2 --m 24", "points-homma --q 1048583 --ell 2",
                "points-homma --q 2097152 --ell 2"]
    expected = {"gs --q 9 --m 3": [9, 9], "points-homma --q 9 --ell 3": [9, 9],
                **{line: [int(line.split()[2])] for line in rejected},
                "gs --q 1 --m 1": [], "points-homma --q 0 --ell 2": []}
    divided = {}
    for line in expected:
        calls.clear()
        run_cli(capsys, *line.split())
        divided[line] = calls.copy()
    assert divided == expected


def test_input_limits_table_is_the_corpus_rule_list():
    # README's rule cells are rendered from parity.RULES; each rule's row is rejected with its
    # message, and a row that breaks two adjacent rules with the earlier one's
    limits = README.read_text().split("### Input limits")[1].split("### Start-up")[0]
    assert re.findall(r"^\| `([^`]+)` \| ([^|]+) \|", limits, re.M) == [
        (command, "; ".join(rule.words for rule in rules))
        for command, rules in parity.RULES.items()]
    for rules in parity.RULES.values():
        for rule in rules:
            for key in filter(None, [rule.breaks, rule.breaks_next]):
                row = parity.row(*key)
                assert row.code == 2 and rule.message in row.stderr, (rule.words, row)


@settings(max_examples=300, derandomize=True)
@given(st.integers(1, 10**40), st.integers(1, 10**40), st.integers(1, 10**6))
@example(1, 1, 1)
@example(2**64, 2**32, 2)
def test_ratio_is_str_of_fraction(a, b, k):
    # points-homma formats total/degree with gcd, without loading fractions
    assert cli._ratio(a, b) == str(Fraction(a, b))
    assert cli._ratio(k * b, b) == str(Fraction(k * b, b)) == str(k)  # b divides a


@pytest.mark.parametrize("error", [ValueError, ComputationError])
def test_internal_value_error_is_not_a_rejection(monkeypatch, capsys, error):
    # only a ValidationError is rejected input (exit 2); any other error
    # escaping a handler, a check's own type included, is a bug and
    # propagates, so the script exits 1 with a traceback instead of "error: boom"
    def broken(q, ell):
        raise error("boom")

    monkeypatch.setattr(homma_family, "count_total", broken)
    with pytest.raises(error, match="^boom$"):
        cli.main(["points-homma", "--q", "3", "--ell", "2"])
    assert capsys.readouterr() == ("", "")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
def test_output_does_not_depend_on_the_int_str_limit(capsys):
    # the print checks admit 4300 digits; a lower PYTHONINTMAXSTRDIGITS
    # must neither change the bytes nor leave main's own limit behind
    lines = [("gs", "--q", "2", "--m", "3000"), ("points-homma", "--q", "3", "--ell", "2200")]
    expected = [run_cli(capsys, *line) for line in lines]
    assert [code for code, _, _ in expected] == [2, 0]
    assert expected[0][2].startswith("error: conductor ")
    caller = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert [run_cli(capsys, *line) for line in lines] == expected
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(caller)


LOW_BIT = bytes(i & 1 for i in range(256))


@st.composite
def mark_runs(draw):
    """Mark bytes as runs up to 2500 long, each all clear, all set or random,
    so that windows of 1000 are often empty, full, or cut by either end."""
    mark = bytearray()
    for kind, length, seed in draw(st.lists(
        st.tuples(st.sampled_from("01r"), st.integers(0, 2500), st.integers(0, 2**32)),
        max_size=5,
    )):
        if kind == "r":
            mark += random.Random(seed).randbytes(length).translate(LOW_BIT)
        else:
            mark += bytes([int(kind)]) * length
    return bytes(mark)


def cut_segments(low, mark, cuts):
    """mark, the marks of [low, low + len(mark)), as contiguous segments: the
    first starts at low, and one more starts at each of cuts inside the range."""
    stop = low + len(mark)
    edges = sorted({low, stop, *(c for c in cuts if low < c < stop)})
    return [(a, mark[a - low:b - low]) for a, b in pairwise(edges)]


# a cut n at an offset from the window edge at or below low: anywhere, or a
# window's first or last number
CUT_OFFSETS = st.one_of(
    st.integers(0, 13_000),
    st.integers(0, 13).flatmap(lambda k: st.sampled_from([1000 * k, 1000 * k + 999])),
)


@settings(max_examples=300, deadline=None)
@given(
    low=st.one_of(st.sampled_from([0, 1, 999, 1000, 1001, 999_999]), st.integers(0, 10**7)),
    mark=mark_runs(),
    sep=st.sampled_from(",;"),
    offsets=st.lists(CUT_OFFSETS, max_size=8),
)
@example(low=1000, mark=bytes(2500), sep=",", offsets=[])  # no mark at all
@example(low=1500, mark=b"\x01" * 300 + bytes(1200) + b"\x01" * 700, sep=";",
         offsets=[])  # an empty window
@example(low=998, mark=b"\x01" * 2005, sep=";", offsets=[])  # both ends inside a window
@example(low=0, mark=b"", sep=",", offsets=[])
# the first and last windows have equal marks but different suffix tables
@example(low=1500, mark=b"\x01" * 2000, sep=",", offsets=[])
# a period that does not divide 1000: each window's marks rotate from the last one's
@example(low=1000, mark=b"\x00\x01\x01" * 5000, sep=";", offsets=[2000, 4000])
# long runs of windows with no mark between marked ones, cut inside those runs, one
# segment holding no mark and one cut between two marks of a window
@example(low=2500, mark=b"\x01" * 3 + bytes(20_000) + b"\x01\x00\x01" + bytes(35_000) + b"\x01",
         sep=",", offsets=[5000, 12_999, 13_000, 20_504, 30_000, 40_500])
# alternating marks, so that no window reuses the last one's picks: windows 0 and 1
# have equal marks but different suffix tables, and a cut pads a window's second part
@example(low=0, mark=b"\x01" * 2000 + (b"\x01\x00" * 500 + b"\x00\x01" * 500) * 5, sep=";",
         offsets=[1000, 4500])
# many distinct windows
@example(low=1234, mark=random.Random(7).randbytes(128_000).translate(LOW_BIT),
         sep=",", offsets=[])
# segments starting inside a window, at a window's last number, at an edge and past it
@example(low=243, mark=b"\x01" * 3000, sep=";", offsets=[500, 999, 1000, 1999, 2001])
# segments of one number each, across a window edge
@example(low=997, mark=b"\x01\x00\x01\x01\x01", sep=",", offsets=range(998, 1002))
def test_join_marked_matches_str_join(low, mark, sep, offsets):
    segments = cut_segments(low, mark, [low - low % 1000 + offset for offset in offsets])
    pieces = list(streams.join_marked(segments, sep))
    assert "".join(pieces) == sep.join(map(str, compress(range(low, low + len(mark)), mark)))
    assert all(piece.count(sep) <= 1000 for piece in pieces)  # at most one window each


@pytest.mark.parametrize("sep", [",", ";"])
def test_join_marked_writes_the_minimal_generators(sep):
    for q, m in verify_semigroup.semigroup_grid():
        text = "".join(streams.join_marked(semigroup.generator_marks(q, m), sep))
        assert text == sep.join(map(str, verify_semigroup.minimal_generators(q, m))), (q, m)


def test_join_marked_copies_no_whole_mark():
    # marking and writing (5, 10): 1.95M generators below 11.7M, never 9.7 MB of marks
    tracemalloc.start()
    try:
        for _ in streams.join_marked(semigroup.generator_marks(5, 10), ","):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 0.33 MB: one segment, one window and the last window's picks at a time; a
    # memo of 64 windows' picks peaked at 0.47 MB, which this budget fails
    assert peak < 400_000


# peak bytes per format, with json and rpl.bounds loaded: streamed, json
# peaks at 0.09 MB, csv at 0.20 MB (loading csv included) and text at
# 0.07 MB; a rendering that lists every row first peaks at 3.76 MB in json,
# 1.28 MB in csv and 0.91 MB in text, so each budget fails its list form
TABLE_BUDGETS = {"json": 200_000, "csv": 400_000, "text": 400_000}


@pytest.mark.parametrize("fmt", TABLE_BUDGETS)
def test_bounds_table_holds_one_row(fmt):
    # 9.7K rows, rendered one row per piece in every format, never all at
    # once; the json budget fails pieces of 256 rows (rows of about 330
    # bytes), which peaked at 0.40 MB
    tracemalloc.start()
    try:
        rendering = cli._cmd_bounds(argparse.Namespace(q=None, table=100_000, format=fmt))
        for _ in rendering.pieces:
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < TABLE_BUDGETS[fmt]


def _bounds_output(fmt, q=None, table=None):
    out = io.StringIO()
    entry._write(out, cli._cmd_bounds(argparse.Namespace(q=q, table=table, format=fmt)).pieces)
    return out.getvalue()


def _bounds_oracle(fmt, summaries, qmax=None):
    """bounds --q (qmax None) or --table qmax as rendered an object at a time: a dict
    per record through a compact JSONEncoder, or str(value) cells through csv.writer."""
    import csv
    if fmt == "json":
        rows = [{"q": summary.q, "upper": int(summary.records[0].value),
                 "best_lower": None if summary.best_lower is None else str(summary.best_lower),
                 "records": [{**rec._asdict(), "value": str(rec.value)} for rec in summary.records]}
                for summary in summaries]
        whole = {"schema": 1, **rows[0]} if qmax is None else {"schema": 1, "qmax": qmax, "rows": rows}
        return json.JSONEncoder(separators=(",", ":")).encode(whole) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["q", "upper", "best_lower", "records"])
        for summary in summaries:
            writer.writerow([summary.q, str(summary.records[0].value),
                             "" if summary.best_lower is None else str(summary.best_lower),
                             ";".join(f"{rec.name}={rec.value}" for rec in summary.records)])
        return out.getvalue()
    heads = [(summary.q, summary.records[0].value,
              "unknown" if summary.best_lower is None else summary.best_lower)
             for summary in summaries]
    if qmax is None:
        (q, upper, best), = heads
        return f"q {q}\nupper {upper}\nbest_lower {best}\n" + "".join(
            f"record {rec.name} {rec.direction} {rec.value}\n" for rec in summaries[0].records)
    return "".join(f"q={q} upper={upper} best_lower={best}\n" for q, upper, best in heads)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_bound_rendering_matches_an_object_at_a_time(fmt):
    # each record kind's text is built once per stream; the oracle renders every
    # record on its own, for each prime power q <= 4096, the odd-power record at
    # e = 15 and 7, the square-tower record at r = 1024 and 257, and a prime past
    # the sieve's first segment
    for qmax in (4096, 65539):
        assert _bounds_output(fmt, table=qmax) == _bounds_oracle(
            fmt, list(bounds.dq_table(qmax)), qmax), qmax
    qs = [summary.q for summary in bounds.dq_table(4096)] + [2**15, 3**7, 2**20, 257**2, 65539]
    for q in qs:
        assert _bounds_output(fmt, q=q) == _bounds_oracle(fmt, [bounds.dq_summary(q)]), q


def test_bound_csv_rows_match_csv_writer():
    # bound csv rows are joined by hand, since no cell can need quoting: for a row
    # of each rule (every tabulated q, square and odd-power q, q = 2 with its empty
    # best_lower cell), csv.writer writes the cells it reads back as the same line
    import csv
    lines = _bounds_output("csv", table=4096).splitlines(keepends=True)
    for q in (2**15, 3**7, 2**20, 257**2):
        lines += _bounds_output("csv", q=q).splitlines(keepends=True)[1:]
    assert lines[:2] == ["q,upper,best_lower,records\n", "2,1,,nondegenerate-limit=1\n"]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(csv.reader(lines))
    assert out.getvalue() == "".join(lines)
    rules = set()
    for q, _, _, records in csv.reader(lines[1:]):
        for name in (piece.split("=")[0] for piece in records.split(";")):
            rules.add(f"{name} {q}" if name == "half-ihara-table" else name)
    assert rules == {"nondegenerate-limit", "explicit-family", "square-tower", "half-ihara-odd-power",
                     *(f"half-ihara-table {q}" for q in bounds.IHARA_HALF_TABLE)}


# tracemalloc peaks of cli.main(["bounds", "--table", "100000", "--format", F,
# "--out", os.devnull]) after a first run has loaded every module: json 0.19 MB,
# csv 0.35 MB, text 0.25 MB (0.19, 0.34 and 0.24 MB when each row was rendered
# as its own objects); writing one string of every row instead peaks at 6.9,
# 1.8 and 1.2 MB, so each budget fails that form
MAIN_BUDGETS = {"json": 400_000, "csv": 600_000, "text": 450_000}


@pytest.mark.parametrize("fmt", MAIN_BUDGETS)
def test_bounds_table_through_main_holds_one_write(fmt):
    # _write holds up to WRITE_CHARS characters of pieces, one piece per row
    argv = ["bounds", "--table", "100000", "--format", fmt, "--out", os.devnull]
    assert cli.main(argv) == 0
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MAIN_BUDGETS[fmt]


def test_bounds_q_agrees_with_its_table_row():
    # bounds --q factors q, bounds --table takes p and e from the sieve; both
    # build their rows through the same code, for every prime power q <= 4096
    start = time.perf_counter()
    header, *lines = _bounds_output("csv", table=4096).splitlines(keepends=True)
    rows = json.loads(_bounds_output("json", table=4096))["rows"]
    assert [row["q"] for row in rows] == [
        q for q in range(2, 4097)
        if q in {(p := next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)) ** k
                 for k in range(1, 13)}
    ]
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        assert _bounds_output("csv", q=row["q"]) == header + line
        assert json.loads(_bounds_output("json", q=row["q"])) == {"schema": 1, **row}
    assert time.perf_counter() - start < 1.0


def test_semigroup_renders_within_time_budget():
    # 1.95M generators, 17 MB of csv, written from the mark bytes in about
    # 0.05 s, since only windows that hold a generator are visited and each
    # joins its picked suffixes, picked again only when its marks differ from
    # the last visited window's; a compress over every window's marks took
    # about 0.13 s
    start = time.perf_counter()
    assert cli.main(["semigroup", "--q", "5", "--m", "10", "--format", "csv",
                     "--out", os.devnull]) == 0
    assert time.perf_counter() - start < 0.25


def test_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "bounds", "--table", "16", "--format", "json")
    _, second, _ = run_cli(capsys, "bounds", "--table", "16", "--format", "json")
    assert first == second


def test_verify_failure_sets_exit_code(monkeypatch, capsys):
    import rpl.verify

    def fake(scope, n_max):
        return [CheckResult("gf", "stub_check", False, "synthetic failure")]

    monkeypatch.setattr(rpl.verify, "run_verify", fake)
    code, out, _ = run_cli(capsys, "verify", "gf")
    assert code == 1
    assert "stub_check FAIL (synthetic failure)" in out
    assert "0/1 checks passed" in out


@pytest.mark.parametrize("scope, n_max", [("bounds", 1), ("gf", 0)])
def test_verify_rejects_n_max_below_two(monkeypatch, capsys, scope, n_max):
    for name in SCOPES[1:]:  # no scope module may load, so no check may run
        monkeypatch.setitem(sys.modules, f"rpl.verify.{name}", None)
    code, out, err = run_cli(capsys, "verify", scope, "--n-max", str(n_max))
    assert code == 2
    assert out == ""
    assert err == f"error: n_max must be >= 2, got {n_max}\n"


def test_verify_admits_n_max_at_its_limit(monkeypatch, capsys):
    # a bounds scan at 4000 takes about 5 s; with no check to run, only the limit is tested
    monkeypatch.setattr(verify_bounds, "check_bounds", lambda n_max: [])
    assert run_cli(capsys, "verify", "bounds", "--n-max", "4000") == (0, "0/0 checks passed\n", "")


def test_verify_fail_details_of_broken_bounds(monkeypatch, capsys):
    monkeypatch.setattr(verify_bounds, "count_exceptional_quartic", lambda: 13)
    monkeypatch.setattr(verify_bounds, "sziklai_bound", lambda q, d: 0)
    code, out, _ = run_cli(capsys, "verify", "bounds")
    assert code == 1
    lines = out.splitlines()
    assert "[bounds] exceptional_quartic=14 FAIL (count 13 of 21)" in lines
    assert "[bounds] weil_sziklai_dvz_frozen FAIL (3; 4; 5)" in lines
    assert lines[-1] == "7/9 checks passed"


@pytest.mark.parametrize("q,m,genus", [(32, 2, 961), (1024, 1, 0)])
def test_gs_finishes_at_large_fields(capsys, q, m, genus):
    # F_{32^2} and F_{1024^2} = F_{2^20}, the largest field under the cap
    code, out, _ = run_cli(capsys, "gs", "--q", str(q), "--m", str(m), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["split"] == (q - 1) * q**m
    assert payload["genus"] == payload["gap_count"] == genus


SRC = Path(__file__).resolve().parent.parent / "src"
# a child's environment with its stdout block-buffered, as it is without PYTHONUNBUFFERED:
# only then does a failed write leave text held for the final flush
BUFFERED = {**{key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"},
            "PYTHONPATH": str(SRC)}
# the modules the footprint test looks for: only --help, a usage error or a
# spelling only argparse takes loads argparse (with gettext), a command that
# never imports rpl.gf builds no field, each command imports only the rpl
# modules it reads, only semigroup and bounds compile the streamed renderers
# of rpl.streams, and only a failing verify check imports traceback
PROBED_MODULES = ("argparse", "gettext", "dataclasses", "inspect", "typing", "json", "csv",
                  "fractions", "decimal", "traceback", "rpl.verify", "rpl.gf", "array",
                  "rpl.bounds", "rpl.gs_tower", "rpl.homma_family", "rpl.semigroup",
                  "rpl.primes", "rpl.streams")
GS = ["rpl.gs_tower", "rpl.semigroup", "rpl.primes"]
HOMMA = ["rpl.homma_family", "rpl.primes"]
ARGPARSE = ["argparse", "gettext"]
# fractions imports decimal
BOUNDS = ["fractions", "decimal", "rpl.bounds", "rpl.primes", "rpl.streams"]
# each line and the probed modules it loads, in PROBED_MODULES order; every
# other probed module must stay unloaded
FOOTPRINT_LINES = {
    "gs": ("gs --q 16 --m 3", GS),
    "gs-largest-field": ("gs --q 1024 --m 1", GS),
    "gs-json": ("gs --q 2 --m 3 --format json", ["json", *GS]),  # the probe does see imports
    "gs-csv": ("gs --q 2 --m 3 --format csv", ["csv", *GS]),
    "semigroup": ("semigroup --q 3 --m 4", ["rpl.semigroup", "rpl.streams"]),
    "semigroup-csv": ("semigroup --q 3 --m 2 --format csv",
                      ["csv", "rpl.semigroup", "rpl.streams"]),
    "points-homma": ("points-homma --q 3 --ell 3", HOMMA),
    "points-homma-largest-field": ("points-homma --q 1048576 --ell 2", HOMMA),
    "points-homma-long-degree": ("points-homma --q 3 --ell 7142", HOMMA),
    "points-homma-rejected-degree": ("points-homma --q 3 --ell 14288", HOMMA),
    "points-homma-csv": ("points-homma --q 3 --ell 3 --format csv", ["csv", *HOMMA]),
    "bounds": ("bounds --q 9", BOUNDS),
    "bounds-csv": ("bounds --q 9 --format csv", BOUNDS),  # its rows need no csv.writer
    "bounds-table": ("bounds --table 32", BOUNDS),
    "bounds-table-csv": ("bounds --table 32 --format csv", BOUNDS),
    "verify-csv": ("verify homma --format csv",
                   ["csv", "fractions", "decimal", "rpl.verify", "rpl.gf", "array",
                    "rpl.homma_family", "rpl.primes"]),
    "help": ("--help", ARGPARSE),
    "usage-error": ("gs --q x --m 3", ARGPARSE),
    "argparse-spelling": ("gs --q=16 --m 3", [*ARGPARSE, *GS]),
}
# argparse's two lines for the usage error: its usage, then its error
USAGE_ERROR = ("usage: rpl gs ", "rpl gs: error: argument --q: invalid int value: 'x'")


@pytest.mark.parametrize("name", FOOTPRINT_LINES)
def test_command_import_footprint(name):
    # -S keeps site hooks from preloading modules such as typing
    line, loaded = FOOTPRINT_LINES[name]
    code = (
        "import sys\nfrom rpl import cli\n"
        f"try:\n    cli.main({line.split()!r})\n"
        "except SystemExit:\n    pass\n"  # argparse ends --help with SystemExit(0)
        f"print([name for name in {PROBED_MODULES!r} if name in sys.modules], file=sys.stderr)"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    *rejections, probed = proc.stderr.splitlines()  # a rejected line prints its error first
    if name == "usage-error":
        assert (rejections[0][:len(USAGE_ERROR[0])], rejections[-1]) == USAGE_ERROR, proc.stderr
    else:
        assert all(line.startswith("error: ") for line in rejections), proc.stderr
    assert probed == str(loaded)


# the verify modules each scope loads: its own, for gs the semigroup oracle it reads,
# and for bounds the tower limit in verify.gs
VERIFY_FOOTPRINT = {
    "gf": ["rpl.verify", "rpl.verify.gf"],
    "homma": ["rpl.verify", "rpl.verify.homma"],
    "gs": ["rpl.verify", "rpl.verify.gs", "rpl.verify.semigroup"],
    "semigroup": ["rpl.verify", "rpl.verify.semigroup"],
    "bounds": ["rpl.verify", "rpl.verify.bounds", "rpl.verify.gs", "rpl.verify.semigroup"],
}


@pytest.mark.parametrize("scope", VERIFY_FOOTPRINT)
def test_verify_scope_import_footprint(scope):
    # a scope's module is imported just before it runs, so a run compiles only its own
    # scopes; a passing run never imports traceback
    code = (
        f"import sys; from rpl import cli; cli.main(['verify', {scope!r}]); "
        "print(sorted(name for name in sys.modules if name.startswith('rpl.verify')"
        " or name == 'traceback'), file=sys.stderr)"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"{VERIFY_FOOTPRINT[scope]}\n"


def test_commands_prove_no_prime_again(monkeypatch, capsys):
    # factor_prime_power has proved p prime; only gf.make_field, handed an
    # unfactored (p, e), trial-divides p again
    lines = ["points-homma --q 9 --ell 3", "gs --q 16 --m 3",
             "points-homma --q 1048583 --ell 2"]  # a prime past the field cap
    expected = [run_cli(capsys, *line.split()) for line in lines]

    def refuse(n):
        raise AssertionError(f"a command called is_prime({n})")

    monkeypatch.setattr(gf, "is_prime", refuse)
    assert [run_cli(capsys, *line.split()) for line in lines] == expected
    assert [code for code, _, _ in expected] == [0, 0, 2]


def test_gs_reads_generators_from_closed_forms(monkeypatch, capsys):
    _, expected, _ = run_cli(capsys, "gs", "--q", "2", "--m", "5", "--format", "json")

    def refuse(q, m):
        raise AssertionError("gs must not list the generators")

    monkeypatch.setattr(semigroup, "generator_marks", refuse)
    code, out, _ = run_cli(capsys, "gs", "--q", "2", "--m", "5", "--format", "json")
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("relative, reason", [
    ("missing/out.txt", "No such file or directory"),
    ("", "Is a directory"),
])
def test_out_path_that_cannot_be_opened(tmp_path, capsys, relative, reason):
    target = tmp_path / relative
    code, out, err = run_cli(capsys, "gs", "--q", "3", "--m", "2", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {target}: {reason}\n"


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@needs_dev_full
def test_failed_write_to_out_path(capsys):
    code, out, err = run_cli(capsys, "semigroup", "--q", "3", "--m", "3", "--out", "/dev/full")
    assert code == 2
    assert out == ""
    assert err == "error: cannot write /dev/full: No space left on device\n"


@needs_dev_full
@pytest.mark.parametrize("m", [3, 12])  # one write at the flush; many while streaming
def test_failed_write_to_stdout(m):
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "rpl.cli", "semigroup", "--q", "3",
                               "--m", str(m)], stdout=full, stderr=subprocess.PIPE, text=True,
                              env=BUFFERED)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write <stdout>: No space left on device\n"


def test_closed_stdout_is_a_failed_write():
    # `rpl ... >&-`: Python sets sys.stdout to None, and the run fails as a write to a bad fd does
    proc = subprocess.run([sys.executable, "-m", "rpl.cli", "gs", "--q", "3", "--m", "2"],
                          preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write <stdout>: Bad file descriptor\n"


class WriteLog(io.RawIOBase):
    """A raw stream that keeps the length and the digest of what is written to it."""

    def __init__(self):
        self.sizes, self.digest = [], hashlib.sha256()

    def writable(self):
        return True

    def write(self, data):
        self.sizes.append(len(data))
        self.digest.update(data)
        return len(data)


def test_stdout_is_written_in_write_chars_pieces(monkeypatch):
    # semigroup --q 3 --m 14: 12.75 MB of text in 1,733 windows of at most
    # 8,000 bytes, written as 320 writes; the tables: 9.7K rows of at most
    # 0.4 KB each; an unbuffered stdout makes each write a system call
    for line in ("semigroup --q 3 --m 14", "bounds --table 100000 --format json",
                 "bounds --table 100000"):
        row = parity.row(line)
        raw = WriteLog()
        monkeypatch.setattr(sys, "stdout",
                            io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
        assert cli.main(row.line.split()) == row.code
        total = sum(raw.sizes)
        assert all(size >= entry.WRITE_CHARS for size in raw.sizes[:-1]), line
        assert len(raw.sizes) <= -(-total // entry.WRITE_CHARS) + 1, line
        assert raw.digest.hexdigest() == row.sha256, line


def test_failed_run_creates_no_out_file(tmp_path, capsys):
    target = tmp_path / "gens.txt"
    code, out, _ = run_cli(capsys, "semigroup", "--q", "2", "--m", "24", "--out", str(target))
    assert code == 2
    assert out == ""
    assert not target.exists()


@pytest.mark.parametrize("line", [
    "gs --q 2 --m 100000",
    "gs --q 3 --m 1000000",
    "semigroup --q 3 --m 10000000",
    "gs --q 3 --m 10000000",
])
def test_huge_level_is_rejected_at_once(line):
    # the conductor has far more digits than CPython prints, so the message
    # names q and m, and it is rejected before q^m is formed
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "rpl.cli", *line.split()], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "exceeds the bitmap cap" in proc.stderr


# cli.run in a fresh interpreter, with an atexit handler registered before it
_AT_EXIT = """
import atexit, sys
atexit.register(print, "atexit ran")
from rpl import cli
cli.run()
"""


@pytest.mark.parametrize("line", [
    "gs --q 16 --m 3 --format json", "points-homma --q 6 --ell 2", "--help",
])
def test_run_leaves_through_atexit(line):
    # run() freezes the collector on its way out but is no os._exit: the
    # handlers still run, after the command's output has been flushed
    row = parity.row(line)
    proc = subprocess.run([sys.executable, "-S", "-c", _AT_EXIT, *line.split()],
                          capture_output=True, env={**os.environ, "COLUMNS": "80",
                                                    "PYTHONPATH": str(SRC)})
    output, ran = proc.stdout[:-len(b"atexit ran\n")], proc.stdout[-len(b"atexit ran\n"):]
    assert ran == b"atexit ran\n"
    assert (proc.returncode, hashlib.sha256(output).hexdigest(), proc.stderr.decode()) == (
        row.code, row.sha256, row.stderr)


def test_only_run_freezes_the_collector():
    # main() also runs inside processes that go on (the tests, perfbench's
    # tracer); only run(), which ends its process, may freeze the collector,
    # and only after main(), so that what main() made is frozen too
    code = (
        "import gc, sys\nfrom rpl import cli\n"
        "before = gc.get_freeze_count()\ncli.main(sys.argv[1:])\n"
        "kept = gc.get_freeze_count() == before\n"
        "made, main = [], cli.main\ncli.main = lambda: made.append([]) or main()\n"
        "try:\n    cli.run()\n"
        "except SystemExit as exc:\n"
        "    frozen = all(obj is not made[0] for obj in gc.get_objects())\n"
        "    print(exc.code, kept, gc.get_freeze_count() > 0, frozen, file=sys.stderr)"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code, "gs", "--q", "3", "--m", "2"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.stderr == "0 True True True\n"


# Runs `rpl ARGS...` and prints its exit code, stdout sha256 and peak RSS.  A
# child's ru_maxrss starts at the peak of the process that spawned it, so the
# run is started from this small interpreter rather than from pytest itself.
_MEASURE = """
import hashlib, os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "rpl.cli", *sys.argv[1:]], stdout=subprocess.PIPE)
digest = hashlib.sha256()
while chunk := proc.stdout.read(1 << 20):
    digest.update(chunk)
_, status, usage = os.wait4(proc.pid, 0)  # this child's own peak RSS
print(os.waitstatus_to_exitcode(status), digest.hexdigest(), usage.ru_maxrss)
"""


def run_measured(line: str) -> tuple[int, str, int]:
    """Exit code, stdout sha256 and peak RSS in KiB of `rpl LINE`."""
    proc = subprocess.run([sys.executable, "-c", _MEASURE, *line.split()], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    code, digest, rss = proc.stdout.split()
    return int(code), digest, int(rss)


def test_semigroup_streams_generators_in_bounded_memory():
    # 4.2M generators, 36 MB of json: marked a segment at a time and written in
    # windows, never held at once, so the run costs little more than one record
    row = parity.row("semigroup --q 2 --m 23 --format json")
    one = parity.row("semigroup --q 2 --m 2 --format json")
    code, digest, rss = run_measured(row.line)
    one_code, one_digest, one_rss = run_measured(one.line)
    assert (code, digest, one_code, one_digest) == (row.code, row.sha256, one.code, one.sha256)
    assert rss < one_rss + 3 * 1024  # KiB on Linux


def test_bounds_table_streams_in_bounded_memory():
    # 26K rows, 8.6 MB of json: the sieve holds O(sqrt(N)) and each row becomes
    # text as it is computed, so the table costs little more than one record
    table = parity.row("bounds --table 300000 --format json")
    one = parity.row("bounds --q 9 --format json")
    code, digest, rss = run_measured(table.line)
    one_code, one_digest, one_rss = run_measured(one.line)
    assert (code, digest, one_code, one_digest) == (table.code, table.sha256, one.code, one.sha256)
    assert rss < one_rss + 3 * 1024  # KiB on Linux


def test_reader_closing_the_pipe_early_is_not_an_error():
    # `rpl semigroup ... | head`: the output is streamed, and a reader that
    # stops early ends the run quietly with exit 0, as one whole write did
    proc = subprocess.Popen(
        [sys.executable, "-m", "rpl.cli", "semigroup", "--q", "2", "--m", "22"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.stdout.read(20) == b"q 2\nm 22\nconductor 4"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


class ClosingReader(io.StringIO):
    """An in-process stdout, with no file descriptor, whose reader stops after 1 MB."""

    def write(self, text):
        if self.tell() + len(text) > 1 << 20:
            raise BrokenPipeError
        return super().write(text)


def test_reader_closing_an_in_process_stdout_is_not_an_error(monkeypatch, capsys):
    # the sink has no descriptor to point at devnull, and no final flush reaches it
    monkeypatch.setattr(sys, "stdout", sink := ClosingReader())
    assert cli.main(["semigroup", "--q", "2", "--m", "22"]) == 0
    assert sink.getvalue().startswith("q 2\nm 22\nconductor ")
    assert capsys.readouterr().err == ""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_reader_closing_the_pipe_leaves_no_descriptor_open(monkeypatch, capsys):
    # main() opens no descriptor and leaves its caller's stdout writing to the
    # pipe: only run(), which ends its process, points stdout at devnull
    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as pipe:
        monkeypatch.setattr(sys, "stdout", pipe)
        before = len(os.listdir("/proc/self/fd"))
        assert cli.main(["semigroup", "--q", "2", "--m", "20"]) == 0
        assert len(os.listdir("/proc/self/fd")) == before
        assert stat.S_ISFIFO(os.fstat(write).st_mode)
    assert capsys.readouterr().err == ""


def test_reader_gone_before_the_first_write_is_not_an_error():
    # stdout keeps the text that main()'s one flush could not write: run()
    # points it at devnull, so the final flush cannot fail
    read, write = os.pipe()
    os.close(read)
    with open(write, "wb") as pipe:
        proc = subprocess.run([sys.executable, "-m", "rpl.cli", "semigroup", "--q", "3",
                               "--m", "3"], stdout=pipe, stderr=subprocess.PIPE, env=BUFFERED)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_verify_isolates_a_raising_check(monkeypatch, capsys):
    code, clean, _ = run_cli(capsys, "verify", "semigroup")
    assert code == 0
    # a check's input is fixed, so a ValidationError it raises is a bug like any other
    for error in (RuntimeError, ValidationError):
        def _check_conductor_minimal():
            raise error("broken check")

        monkeypatch.setattr(verify_semigroup, "_check_conductor_minimal", _check_conductor_minimal)
        code, out, err = run_cli(capsys, "verify", "semigroup")
        assert code == 1
        before, after = clean.splitlines(), out.splitlines()
        assert len(after) == len(before) == 7
        changed = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
        assert changed == [1, 6]
        assert after[1] == f"[semigroup] conductor_minimal FAIL ({error.__name__})"
        assert after[6] == "5/6 checks passed"
        assert err.startswith("Traceback") and f"{error.__name__}: broken check" in err


def test_verify_reports_a_capped_input_without_a_traceback(monkeypatch, capsys):
    # RPL_MAX_FIELD caps command inputs alone: the homma checks count over F_9,
    # above a cap of 8, and pass as they do without it
    monkeypatch.setenv("RPL_MAX_FIELD", "8")
    code, out, err = run_cli(capsys, "verify", "homma")
    assert (code, out.splitlines()[-1], err) == (0, "5/5 checks passed", "")
