"""The parity corpus (tests/parity.py) run in this process, and its ties to the benchmark.

parity.check_row runs each row once: the rows that end in a result (exit
0 or 1) here, the rows that reject their input as test_cli.py's
test_cli_rejections, and the rows in parity.SUBPROCESS in the tests that
need a fresh process. A few rows are also run as `python -m rpl.cli`, to
pin the way a process leaves through cli.run.
"""

import os
import re
import runpy
import subprocess
import sys
from itertools import chain
from pathlib import Path

import pytest

import parity

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
INTERPRETERS = Path(__file__).resolve().parent / "parity_interpreters.py"


@pytest.mark.parametrize("row", parity.cases(rejected=False))
def test_stdout_matches_golden_digest(row):
    parity.check_row(row)


@pytest.mark.parametrize("line", [
    "--help",  # argparse's SystemExit(0)
    "",  # a usage error: SystemExit(2)
    "points-homma --q 6 --ell 2",  # a rejected input: main returns 2
    "points-homma --q 3 --ell 3 --format json --out points.json",
    "gs --q 16 --m 3 --format json",
])
def test_process_exit_matches_the_corpus(line, tmp_path):
    # check_row calls cli.main in this process; a command line leaves through
    # cli.run, whose way out of the process must not change a byte or a code
    row = parity.row(line)
    args = parity.argv(row.line, str(tmp_path))
    env = {**os.environ, **parity.variables(row.cap), "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "rpl.cli", *args], capture_output=True,
                          env={key: value for key, value in env.items() if value is not None})
    ran = (proc.returncode, parity.written(args, proc.stdout), proc.stderr.decode())
    assert ran == (row.code, row.sha256, row.stderr)


def test_rows_that_must_agree():
    # --out writes to the file what stdout would, and leaves stdout empty
    line = "points-homma --q 3 --ell 3 --format json"
    assert parity.row(f"{line} --out points.json")._replace(line=line) == parity.row(line)
    # RPL_MAX_FIELD caps command inputs alone: verify prints the same bytes under
    # any cap, also below the fields it builds (F_9 in homma, F_16 and F_25 in gs)
    assert parity.row("verify gs", "16")._replace(cap=None) == parity.row("verify gs")
    assert parity.row("verify homma", "9")._replace(cap=None) == parity.row("verify homma")
    for line in ("verify homma", "verify gs"):
        for cap in ("2", "8"):
            parity.check_row(parity.row(line)._replace(cap=cap))  # code, digest and stderr


def test_benchmark_pins_match_the_corpus():
    # the benchmark checks each run against its own digest: a re-pin of the
    # corpus that leaves perfbench/workloads.py behind fails here, not there
    workloads = runpy.run_path(str(WORKLOADS))
    pins = [workloads["HELP"], *chain.from_iterable(workloads["WORKLOADS"].values())]
    pinned = {pin.label(): (pin.exit_code, pin.sha256) for pin in pins}
    rows = {line: parity.row(line) for line in pinned}
    assert {line: (row.code, row.sha256) for line, row in rows.items()} == pinned


def test_parity_interpreters_script_runs():
    # the script that runs the corpus under other interpreters, run on this
    # one without its slowest rows (verify and the bound tables, about 3 s)
    fast = "^(?!verify|bounds --table)"
    proc = subprocess.run([sys.executable, str(INTERPRETERS), "--match", fast, sys.executable],
                          capture_output=True, text=True)
    rows = sum(1 for row in parity.ROWS if re.search(fast, row.line))
    version = sys.version.split()[0]
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, f"{sys.executable}: 0 mismatches in {rows} rows on Python {version}\n", "")
