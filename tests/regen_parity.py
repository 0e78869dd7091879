"""Regenerate the expected columns of the parity corpus from a named commit.

    python tests/regen_parity.py REV

Runs every row of tests/parity.py as `python -m rpl.cli` against the src/
of REV, taken with `git archive` so that the working tree never runs, and
rewrites the table in place with the exit code, digest and stderr that
each run gave. The command lines and their order are kept. If a row's
exit code differs from the one in the table (say, a rejection that REV
answers with a traceback), it names those rows and writes nothing; a row
whose code is None takes whatever REV gives.
"""

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import parity

TABLE = Path(parity.__file__)


def regenerate(src: str):
    for row in parity.ROWS:
        with tempfile.TemporaryDirectory() as out_dir:
            args = parity.argv(row.line, out_dir)
            env = {**os.environ, **parity.variables(row.cap), "PYTHONPATH": src}
            proc = subprocess.run([sys.executable, "-m", "rpl.cli", *args], capture_output=True,
                                  env={key: value for key, value in env.items() if value is not None})
            yield row._replace(code=proc.returncode, sha256=parity.written(args, proc.stdout),
                               stderr=proc.stderr.decode())


def source(row: parity.Row) -> str:
    cap = "None" if row.cap is None else json.dumps(row.cap)
    return (f"    Row({json.dumps(row.line)}, {cap}, {row.code}, "
            f"{json.dumps(row.sha256)}, {json.dumps(row.stderr)}),\n")


def main(rev: str) -> None:
    archive = subprocess.run(["git", "-C", str(TABLE.parents[1]), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tree:
        tarfile.open(fileobj=io.BytesIO(archive)).extractall(tree, filter="data")
        rows = list(regenerate(str(Path(tree) / "src")))
    changed = [f"{new.line} (cap {new.cap}): exit {old.code}, {rev} gives {new.code}"
               for old, new in zip(parity.ROWS, rows) if old.code not in (None, new.code)]
    if changed:
        sys.exit("exit codes differ from the table; nothing written:\n" + "\n".join(changed))
    head, rest = TABLE.read_text().split("ROWS = (\n")
    _, tail = rest.split("\n)\n", 1)
    TABLE.write_text(f"{head}ROWS = (\n{''.join(map(source, rows))})\n{tail}")


if __name__ == "__main__":
    main(*sys.argv[1:])
