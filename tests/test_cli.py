"""CLI dispatch, output formats, determinism, and exit codes."""

import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from itertools import compress
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import parity
from rpl import bounds, cli, homma_family, semigroup, verify
from rpl.verify import CheckResult


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("row", parity.cases(rejected=True))
def test_cli_rejections(row):
    # every rejected input takes one path: exit 2, nothing on stdout, one
    # stderr line (an argparse usage error: the usage, then one line)
    parity.check_row(row)


def test_table_limit_admits_ten_million(monkeypatch, capsys):
    # a table at 10^7 takes 40 s; with no prime powers to render, only the limit is tested
    monkeypatch.setattr(cli, "prime_powers_upto", lambda qmax: iter(()))
    header = "q,upper,best_lower,records\n"
    assert run_cli(capsys, "bounds", "--table", "10000000", "--format", "csv") == (0, header, "")
    assert run_cli(capsys, "bounds", "--table", "10000001", "--format", "csv") == (
        2, "", "error: --table expects a limit of at most 10000000, got 10000001\n")


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


def test_internal_value_error_is_not_a_rejection(monkeypatch, capsys):
    # only a ValidationError is rejected input (exit 2); any other error
    # escaping a handler is a bug and propagates, so the script exits 1
    # with a traceback instead of "error: boom"
    def broken(q, ell):
        raise ValueError("boom")

    monkeypatch.setattr(homma_family, "count_total", broken)
    with pytest.raises(ValueError, match="^boom$"):
        cli.main(["points-homma", "--q", "3", "--ell", "2"])
    assert capsys.readouterr() == ("", "")


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


@settings(max_examples=300, deadline=None)
@given(
    low=st.one_of(st.sampled_from([0, 1, 999, 1000, 1001, 999_999]), st.integers(0, 10**7)),
    mark=mark_runs(),
    sep=st.sampled_from(",;"),
)
@example(low=1000, mark=bytes(2500), sep=",")  # no mark at all
@example(low=1500, mark=b"\x01" * 300 + bytes(1200) + b"\x01" * 700, sep=";")  # an empty window
@example(low=998, mark=b"\x01" * 2005, sep=";")  # both ends inside a window
@example(low=0, mark=b"", sep=",")
# the first and last windows have equal marks but different suffix tables
@example(low=1500, mark=b"\x01" * 2000, sep=",")
# a period that does not divide 1000: the memo hits on rotating patterns
@example(low=1000, mark=b"\x00\x01\x01" * 5000, sep=";")
# more distinct windows than the memo keeps, so it is cleared
@example(low=1234, mark=random.Random(7).randbytes(2000 * cli.MEMO_WINDOWS).translate(LOW_BIT),
         sep=",")
def test_join_marked_matches_str_join(low, mark, sep):
    pieces = list(cli._join_marked(low, mark, sep))
    assert "".join(pieces) == sep.join(map(str, compress(range(low, low + len(mark)), mark)))
    assert all(piece.count(sep) <= 1000 for piece in pieces)  # at most one window each


@pytest.mark.parametrize("sep", [",", ";"])
def test_join_marked_writes_the_minimal_generators(sep):
    for q, m in verify.semigroup_grid():
        text = "".join(cli._join_marked(*semigroup.generator_marks(q, m), sep))
        assert text == sep.join(map(str, semigroup.minimal_generators(q, m))), (q, m)


def test_join_marked_copies_no_whole_mark():
    low, mark = semigroup.generator_marks(5, 10)  # 9.7 MB of marks
    tracemalloc.start()
    try:
        for _ in cli._join_marked(low, mark, ","):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000  # about 0.25 MB: one window and the memo at a time


def test_semigroup_renders_within_time_budget():
    # 1.95M generators, 17 MB of csv, written from the mark bytes in about
    # 0.05 s, since each window joins a memoized list of its picked
    # suffixes; a compress over every window's marks took about 0.13 s
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
    monkeypatch.setattr(verify, "_SCOPE_RUNNERS", {})  # no check may run
    code, out, err = run_cli(capsys, "verify", scope, "--n-max", str(n_max))
    assert code == 2
    assert out == ""
    assert err == f"error: n_max must be >= 2, got {n_max}\n"


def test_verify_admits_n_max_at_its_limit(monkeypatch, capsys):
    # a bounds scan at 4000 takes about 5 s; with no check to run, only the limit is tested
    monkeypatch.setattr(verify, "_SCOPE_RUNNERS", {"bounds": lambda n_max: []})
    assert run_cli(capsys, "verify", "bounds", "--n-max", "4000") == (0, "0/0 checks passed\n", "")


def test_verify_fail_details_of_broken_bounds(monkeypatch, capsys):
    monkeypatch.setattr(verify, "count_exceptional_quartic", lambda: 13)
    monkeypatch.setattr(bounds, "sziklai_bound", lambda q, d: 0)
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
# a command that never imports rpl.gf builds no field
UNUSED_MODULES = ("dataclasses", "inspect", "typing", "json", "rpl.verify", "rpl.gf", "array")
FOOTPRINT_LINES = {
    "gs": "gs --q 16 --m 3",
    "gs-largest-field": "gs --q 1024 --m 1",
    "semigroup": "semigroup --q 3 --m 4",
    "points-homma": "points-homma --q 3 --ell 3",
    "points-homma-largest-field": "points-homma --q 1048576 --ell 2",
    "bounds": "bounds --q 9",
    "bounds-table": "bounds --table 32",
    "gs-json": "gs --q 2 --m 3 --format json",  # loads json: the probe does see imports
}


@pytest.mark.parametrize("name", FOOTPRINT_LINES)
def test_command_import_footprint(name):
    # -S keeps site hooks from preloading modules such as typing
    line = FOOTPRINT_LINES[name]
    loaded = ["json"] if "--format json" in line else []
    code = (
        f"import sys; from rpl import cli; cli.main({line.split()!r}); "
        f"print([name for name in {UNUSED_MODULES!r} if name in sys.modules], file=sys.stderr)"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"{loaded}\n"


def test_gs_reads_generators_from_closed_forms(monkeypatch, capsys):
    _, expected, _ = run_cli(capsys, "gs", "--q", "2", "--m", "5", "--format", "json")

    def refuse(q, m):
        raise AssertionError("gs must not list the generators")

    monkeypatch.setattr(semigroup, "minimal_generators", refuse)
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
                               "--m", str(m)], stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write <stdout>: No space left on device\n"


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
    proc = subprocess.run(
        [sys.executable, "-m", "rpl.cli", *line.split()], capture_output=True, text=True
    )
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "exceeds the bitmap cap" in proc.stderr


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
    proc = subprocess.run([sys.executable, "-c", _MEASURE, *line.split()],
                          capture_output=True, text=True, check=True)
    code, digest, rss = proc.stdout.split()
    return int(code), digest, int(rss)


def test_semigroup_streams_generators_in_bounded_memory():
    # 4.2M generators, 36 MB of json: written in blocks, never held at once
    row = parity.row("semigroup --q 2 --m 23 --format json")
    code, digest, rss = run_measured(row.line)
    assert (code, digest) == (row.code, row.sha256)
    assert rss < 100 * 1024  # KiB on Linux


def test_bounds_table_streams_in_bounded_memory():
    # 26K rows, 8.6 MB of json: each row is rendered and written as it is computed
    row = parity.row("bounds --table 300000 --format json")
    code, digest, rss = run_measured(row.line)
    assert (code, digest) == (row.code, row.sha256)
    assert rss < 45 * 1024  # KiB on Linux


def test_reader_closing_the_pipe_early_is_not_an_error():
    # `rpl semigroup ... | head`: the output is streamed, and a reader that
    # stops early ends the run quietly with exit 0, as one whole write did
    proc = subprocess.Popen(
        [sys.executable, "-m", "rpl.cli", "semigroup", "--q", "2", "--m", "20"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(20) == b"q 2\nm 20\nconductor 1"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_verify_isolates_a_raising_check(monkeypatch, capsys):
    code, clean, _ = run_cli(capsys, "verify", "semigroup")
    assert code == 0

    def _check_conductor_minimal():
        raise RuntimeError("broken check")

    monkeypatch.setattr(verify, "_check_conductor_minimal", _check_conductor_minimal)
    code, out, err = run_cli(capsys, "verify", "semigroup")
    assert code == 1
    before, after = clean.splitlines(), out.splitlines()
    assert len(after) == len(before) == 7
    changed = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
    assert changed == [1, 6]
    assert after[1] == "[semigroup] conductor_minimal FAIL (RuntimeError)"
    assert after[6] == "5/6 checks passed"
    assert "RuntimeError: broken check" in err
