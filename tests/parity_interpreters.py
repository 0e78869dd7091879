"""Run the parity corpus under other Python interpreters.

    python tests/parity_interpreters.py [--match REGEX] PYTHON...

Each interpreter given runs the rows of tests/parity.py (every row, or
those whose command line REGEX matches) against this checkout's src/, in
one process of its own, through parity.check_row. That process starts
with -I -S -B: it reads no PYTHON* variable (PYTHONOPTIMIZE would drop
the assert that compares a row) and no site package, so the rows need
neither pytest nor hypothesis, and it writes no bytecode. Each row that
gives another exit code, digest or stderr than the table is printed, then
one summary line per interpreter. The exit code is 1 if any row differed
or an interpreter failed to run them.
"""

import argparse
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

# run by each interpreter: argv[1:3] are src/ and tests/, argv[3] the pattern;
# exit 1 on any mismatch
CHILD = """
import re, sys, traceback
sys.path[:0] = sys.argv[1:3]
import parity
rows = [row for row in parity.ROWS if re.search(sys.argv[3], row.line)]
mismatches = 0
for row in rows:
    try:
        parity.check_row(row)
        continue
    except AssertionError as exc:
        ran = exc.args[0]
        got = "; ".join(f"{field} {getattr(row, field)!r} -> {getattr(ran, field)!r}"
                        for field in ("code", "sha256", "stderr")
                        if getattr(row, field) != getattr(ran, field))
    except Exception:  # a row that raises differs too
        got = "raised: " + traceback.format_exc().rstrip()
    mismatches += 1
    print(f"mismatch: {row.line!r} (cap {row.cap}): {got}")
print(f"{mismatches} mismatches in {len(rows)} rows on Python {sys.version.split()[0]}")
sys.exit(1 if mismatches else 0)
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--match", default="", metavar="REGEX",
                        help="run only the rows whose command line REGEX matches (re.search)")
    parser.add_argument("pythons", nargs="+", metavar="PYTHON")
    args = parser.parse_args()
    failed = False
    for python in args.pythons:
        proc = subprocess.run([python, "-I", "-S", "-B", "-c", CHILD, str(TESTS.parent / "src"),
                               str(TESTS), args.match], capture_output=True, text=True)
        for line in proc.stdout.splitlines():
            print(f"{python}: {line}")
        if proc.returncode not in (0, 1):
            print(f"{python}: exit {proc.returncode}\n{proc.stderr}", end="")
        failed |= proc.returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
