"""The parity corpus: what fixed `rpl` command lines write, byte for byte.

Each row is a command line, run with COLUMNS=80 and RPL_MAX_FIELD set to
``cap`` (unset for None), and what it gave: the exit code, the sha256 of
what it wrote (stdout, then the --out file if the line has --out) and the
whole of stderr. A token ``a**b`` in a line stands for the decimal value
of a**b. A line with --out names a file in a fresh temporary directory;
its digest is the file's, and the run must leave stdout empty. A change
that is meant to keep every output byte-identical proves it here; no
other file in tests/ pins a digest. check_row() is the one runner: it
runs each row once in this process, as test_golden.py's
test_stdout_matches_golden_digest (exit 0 or 1) or test_cli.py's
test_cli_rejections (exit 2), except the rows in SUBPROCESS, which
criterion 10 and the memory budgets in test_cli.py run in a fresh process.
check_row needs no pytest, so tests/parity_interpreters.py runs every
row through it under each interpreter it is given.

The expected columns are never edited by hand. They are regenerated from
a named commit, never from the change under test:

    python tests/regen_parity.py REV

REV must reject what the table rejects: a row whose exit code would
change stops the script before it writes anything. So REV is 0b83efb
or a later commit (an older one runs verify bounds --n-max 4001, and one
older than 2ac6715 the two rows above the --table limit). To add a row,
or to change a row's exit code on purpose, give it None as its expected
values and regenerate. Each digest was first pinned from the CLI before
the change it guards:

- 70cd3a1 (field arithmetic by enumeration): the six benchmark gs runs, points-homma at
  q = 9, 64, 256, bounds --q 9
- 366014e (the pair-sum generator sieve): semigroup (3, 2), (4, 11), (2, 12); gs (2, 12), (2, 20)
- 1062676 (value propagation): the family counts at small q and large ell, verify homma
- f87e95e (the tower chain walk): the runs at the field cap
- feb3707 (the semigroup bitmap): the closed forms and the generators written in blocks
- e652409 (the whole-table renderer): the bound tables written row by row
- 5a279e5 (sampled field axioms): verify gf --format json
- 70227ea (the field cache): the json of verify homma, gs, semigroup and bounds
- 50d5de4 (an int per generator): the semigroup runs at the edges of the 1000-number windows
- 1d4709f (the last commit with the digests spread over the tests): every other row
- 2ac6715 (the --table limit): the two rows above that limit
- 0b83efb (the --n-max limit): bounds --help, verify bounds --n-max 4001
- ba93a53 (each field's arithmetic fixed at build): verify --help, which states the --n-max range
- 0e2f7b5 (a full sieve, each row factored again): the tables past two segment edges (65539) and
  at a prime square (257^2)
- c590827 (the generator marks in one c_m-byte array): semigroup (7, 8) and (2, 23) csv, which
  cross many mark-segment edges, and (2, 2) json, the one-record run of the memory budget
- 28ab964 (a first segment that starts at q^(m-1)): semigroup (999, 2), whose one number below
  1000 is written apart from the windows, and (1001, 2) csv, whose first window starts at suffix 1
- 4b26473 (the semigroup oracle as a c_m-byte bitmap): verify semigroup as text and csv
- a39122b (verify as one module, prefix lists, 1024-row blocks): verify homma and bounds as csv
- fe17ec0 (each bound row built three times, through a dict): bounds --q 2 as text, --q 3 as
  csv and json, --q 8 as text, --q 32 as json and --q 4096 as csv
- 3bd6ae0 (log10 of every degree through Decimal): points-homma (3, 7141) and (3, 7142), the
  printable degrees 2^7140 and 2^7141
- d8a986a (each bound record rendered as its own object): bounds --q 4 as text, with the
  square-tower and half-table records together, --q 2^15 as json, the odd-power record at
  e = 15, and --q 2^20 as csv, the square-tower record at r = 1024
- 9be96e8 (the field cap applied in the closed forms): the gs and points-homma inputs that
  break two rules, each rejected by the first rule it breaks
- a9ce5b2 (the conductor cap applied in the closed forms): the gs and semigroup inputs that
  break two rules around the conductor cap, each rejected by the first rule it breaks
- 119c824 (every command line parsed by argparse): the spellings only argparse takes, an
  abbreviated flag, --q=16, a repeat and a scope after an option; gs with its flags in another
  order; and a value that starts with '-'
- 03faf94 (gs and points-homma naming their first broken rule by hand): points-homma --q 2
  --ell 1, semigroup --q 1 --m 0 and verify everything --n-max 4001, which each break two
  adjacent rules of README's "Input limits" table (RULES below) and are rejected by the first
"""

import hashlib
import io
import os
import re
import tempfile
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

# Rows that their own tests run in a subprocess: criterion 10 runs `verify
# all` twice, and the memory budgets need a fresh process's peak RSS.
SUBPROCESS = ("verify all", "semigroup --q 2 --m 23 --format json",
              "bounds --table 300000 --format json")


Row = namedtuple("Row", "line cap code sha256 stderr")


def argv(line: str, out_dir: str) -> list[str]:
    """The arguments of a row's line: a**b expanded, the --out file put in out_dir."""
    args = [str(int(m[1]) ** int(m[2])) if (m := re.fullmatch(r"(\d+)\*\*(\d+)", token))
            else token for token in line.split()]
    if "--out" in args:
        at = args.index("--out") + 1
        args[at] = os.path.join(out_dir, args[at])
    return args


def variables(cap: str | None) -> dict[str, str | None]:
    """The environment variables a row sets; None unsets one."""
    # argparse wraps --help and usage lines to the terminal width
    return {"COLUMNS": "80", "RPL_MAX_FIELD": cap}


def written(args: list[str], stdout: bytes) -> str:
    """sha256 of stdout, or of the --out file alone if args name one."""
    if "--out" in args:
        path = args[args.index("--out") + 1]
        if stdout or not os.path.exists(path):
            return "stdout written or no --out file"  # never a digest
        with open(path, "rb") as out:
            stdout = out.read()
    return hashlib.sha256(stdout).hexdigest()


def run(row: Row) -> Row:
    """The row as `rpl` gives it now, run in this process."""
    from rpl import cli  # here, so that regen_parity.py can load the table without rpl

    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), tempfile.TemporaryDirectory() as out_dir, \
            redirect_stdout(stdout), redirect_stderr(stderr):
        for key, value in variables(row.cap).items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        args = argv(row.line, out_dir)
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse: --help, usage errors
            code = exc.code
        sha256 = written(args, stdout.getvalue().encode())
    return row._replace(code=code, sha256=sha256, stderr=stderr.getvalue())


def check_row(row: Row) -> None:
    """Run the row in this process; it must give what the table holds."""
    assert (ran := run(row)) == row, ran


def cases(rejected: bool) -> list:
    """The rows run in this process that reject their input (exit 2), or the others."""
    import pytest  # here, so that the rows run where pytest is not installed

    return [pytest.param(entry, id=(entry.line or "(no arguments)")
                         + (f" cap={entry.cap}" if entry.cap else ""))
            for entry in ROWS if (entry.code == 2) == rejected and entry.line not in SUBPROCESS]


def row(line: str, cap: str | None = None) -> Row:
    return ROWS_BY_KEY[line, cap]


ROWS = (
    Row("", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "usage: rpl [-h] {points-homma,gs,semigroup,bounds,verify} ...\nrpl: error: the following arguments are required: command\n"),
    Row("--help", None, 0, "d3c7200f5081c65f890e96df0aa3421d7c08f19baad01b6f30cda56fc0a95fc6", ""),
    Row("bounds", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "usage: rpl bounds [-h] (--q Q | --table QMAX) [--format {json,csv,text}]\n                  [--out PATH]\nrpl bounds: error: one of the arguments --q --table is required\n"),
    Row("bounds --help", None, 0, "9ed99240c3d79cebb4f86313d53d6054a5f7327a70b0e2960c271751e8145754", ""),
    Row("verify --help", None, 0, "de1456bc97cc94ab612f1bcfd4649720e4f6a6881a84b3e55b87bb93c31b666d", ""),
    Row("verify everything", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "usage: rpl verify [-h] [--n-max N_MAX] [--format {json,csv,text}] [--out PATH]\n                  [{all,gf,homma,gs,semigroup,bounds}]\nrpl verify: error: argument scope: invalid choice: 'everything' (choose from 'all', 'gf', 'homma', 'gs', 'semigroup', 'bounds')\n"),
    Row("points-homma --q 256 --ell 2 --format json", None, 0, "fe78862cdfa819abbfbe3f88de07eacc507a170979d58a66a45bdc701e1e045d", ""),
    Row("points-homma --q 64 --ell 3", None, 0, "2b076dd844090fb815ec243c768f12c2061f96ab123adce86838f91e9ad7beec", ""),
    Row("points-homma --q 9 --ell 6 --format json", None, 0, "e613f387bf658ae579faf195e5c99dcc193b6a669d3d777c4fb14eafb7d786fa", ""),
    Row("points-homma --q 3 --ell 14 --format json", None, 0, "d5195e1e24bc707e1f3e7f5637d55a78f7a5d14e1d12a5aa4dd2233336b14331", ""),
    Row("points-homma --q 4 --ell 11", None, 0, "3039b33edefa8267f9795291955eac597792ae70ab5b396a49edf7c148314c54", ""),
    Row("points-homma --q 5 --ell 10 --format csv", None, 0, "12c03550442a2faf173b19ed13b120ab3e3a3ca0290135f7075067c3ba4890f5", ""),
    Row("points-homma --q 3 --ell 15", None, 0, "37eb45401f15a74359f690fc1ed4b9419cdcf728bc34caf8e725a8bdf178b21b", ""),
    Row("points-homma --q 1048576 --ell 2", None, 0, "5ff5cf4316b75cad7e7c10c183109cb1c650a1536a8eca8e6a71f06ce4868c28", ""),
    Row("points-homma --q 3 --ell 3", None, 0, "11766d682a88f84e293259b775c7ae37f9be9b5f3fccc63e8fb209a82acb7579", ""),
    Row("points-homma --q 3 --ell 3 --format json", None, 0, "7d8c97fb7426ae38985312a16396f0ba96954c9ff2a06d4be833c2ded1a1d399", ""),
    Row("points-homma --q 3 --ell 3 --format json --out points.json", None, 0, "7d8c97fb7426ae38985312a16396f0ba96954c9ff2a06d4be833c2ded1a1d399", ""),
    Row("points-homma --q 4 --ell 2 --format json", None, 0, "1bff78f29163750df5b1d56c7fbe38914e976501473b8bf3bb4e52495dd5319c", ""),
    Row("points-homma --q 64 --ell 2", "100", 0, "94a5b96980904b67fa9e7c1652ad083017552736b66ed4ac464969a5e66c32fa", ""),
    Row("points-homma --q 3 --ell 7141", None, 0, "1909ecd87a7c0930d94ae00c6d94843df024f8c31b3cc4a1f91e1d95aff94c0b", ""),
    Row("points-homma --q 3 --ell 7142", None, 0, "d1ad7946be57dc3131066784271436235b08e555ac80a4dbd8f56014a6e0b54a", ""),
    Row("points-homma --q 3 --ell 14285", None, 0, "7f85e8a02302b4303ce2387f47d130b0d0b5ee32a8758d1e380d080d676b431d", ""),
    Row("points-homma --q 6 --ell 2", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: q = 6 is not a prime power\n"),
    Row("points-homma --q 0 --ell 2", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: q = 0 is not a prime power\n"),
    Row("points-homma --q 2 --ell 3", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: the curve family needs q > 2, got q = 2\n"),
    Row("points-homma --q 3 --ell 1", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: ell must be >= 2, got 1\n"),
    Row("points-homma --q 2 --ell 1", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: the curve family needs q > 2, got q = 2\n"),
    Row("points-homma --q 3 --ell 14286", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: degree (q-1)^(ell-1) = 2^14285 has 4301 digits; at most 4300 can be printed\n"),
    Row("points-homma --q 2097152 --ell 2", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: q = 2^21 = 2097152 exceeds the enumeration cap 1048576\n"),
    Row("points-homma --q 128 --ell 2", "100", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: q = 2^7 = 128 exceeds the enumeration cap 100\n"),
    Row("points-homma --q 1024 --ell 100000", "100", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: q = 2^10 = 1024 exceeds the enumeration cap 100\n"),
    Row("points-homma --q 1000 --ell 1", "100", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: q = 1000 is not a prime power\n"),
    Row("points-homma --q 128 --ell 1", "100", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: q = 2^7 = 128 exceeds the enumeration cap 100\n"),
    Row("gs --q 16 --m 3 --format json", None, 0, "058bf98d25097ce8fb367b03eea205fe51465d2095a96564c5e81e3b95919936", ""),
    Row("gs --q 9 --m 3", None, 0, "6e1f19ec27f0bd505dc65a1be50dbfbd934106615e11ea6c65a65a83e673ec85", ""),
    Row("gs --q 8 --m 4 --format csv", None, 0, "4d609d8b532ba77cbfe427a5863c8785d4b9f12b0b1fcb50ed6899a7c647dfca", ""),
    Row("gs --q 5 --m 4", None, 0, "653f753f4e57699f28cecd8ba7da6fe7556edf8e68cfdbc7336dfe0db467930c", ""),
    Row("gs --q 4 --m 6 --format json", None, 0, "012b0d9c824e15f17d5e0d47bf09561fccc17e042091933ab361122bd7cfea33", ""),
    Row("gs --q 3 --m 8 --format csv", None, 0, "84f3c3e3034520f0e74c4dfc9d1fc104c8c1c09e3acbde0eedf3ebb48105d1b7", ""),
    Row("gs --q 2 --m 20", None, 0, "45f82c8da61d8bdfe3449d5fd5685d21bc9033de0ea63ca78b1f0fe37e7fcd88", ""),
    Row("gs --q 2 --m 12 --format json", None, 0, "e89a020b4f7794271e15357fd62a10af569aec591ecece7547fa13423c333fc2", ""),
    Row("gs --q 32 --m 2 --format json", None, 0, "1ac6658407af3cd0cb86d3b9185cf36b3cb202f70f4ba5673122d98a53a780e0", ""),
    Row("gs --q 1024 --m 1", None, 0, "9e10026c85ce6e3894e9139bff725e60a0fec2586fa35ae9075a2e5b74d45100", ""),
    Row("gs --q 1024 --m 1 --format json", None, 0, "c0ee30a434b51fbcf52c0ad24ec12ced9d98a5db07cb9fe6a7aac98257d8860d", ""),
    Row("gs --q 3 --m 1 --format csv", None, 0, "a8bfd7dbe7ff15a28bb66e574cdd1cbb8ea300c22083c32c1a340ce5d65b6066", ""),
    Row("gs --q 3 --m 2 --format json", None, 0, "11753f450538159fdc554d68305aaae129a41cf64bd9b286401c86c6f552ae53", ""),
    Row("gs --q 2 --m 4 --format json", None, 0, "57ce19438c5ba29d42626796660a60619bcf9e269bcdd6bfc513a469df00fb6f", ""),
    Row("gs --q 2 --m 1", None, 0, "4ed356523c579463e6aa345c6c81d6fb85d32d200373492aa5923e397bdf2cbb", ""),
    Row("gs --q 2 --m 1 --format json", None, 0, "49ebf153c6478c4cf9cc4d6468a33db5bafd7999f9f2f7d2dc56a0bdf6217931", ""),
    Row("gs --q 8 --m 1", "100", 0, "08a485787de764331d3b303baa3e767bfcf30e4b00beea21cd3460cbc07d41a9", ""),
    Row("gs --q 2 --m 23", None, 0, "b9a09e55b2682a3fe69a6a673d6d049630b870edf9103192cafa6c779654a41b", ""),
    Row("gs --q=16 --m 3", None, 0, "374406c17f5656a63e757e027b1f59e7bbc8c367525193b56965a6df56cbd747", ""),
    Row("gs --fo json --q 2 --m 3", None, 0, "5bb84a2b57aa21356621f50260a37404656487a3e3742b26ee5771f135c3ef6c", ""),
    Row("gs --q 9 --q 16 --m 3", None, 0, "374406c17f5656a63e757e027b1f59e7bbc8c367525193b56965a6df56cbd747", ""),
    Row("gs --m 3 --q 16", None, 0, "374406c17f5656a63e757e027b1f59e7bbc8c367525193b56965a6df56cbd747", ""),
    Row("gs --q 6 --m 2", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: q = 6 is not a prime power\n"),
    Row("gs --q 1 --m 1", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: q = 1 is not a prime power\n"),
    Row("gs --q 0 --m 2", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: q = 0 is not a prime power\n"),
    Row("gs --q 4 --m 0", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: m must be >= 1, got 0\n"),
    Row("gs --q 2048 --m 1", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: q = 2^22 = 4194304 exceeds the enumeration cap 1048576\n"),
    Row("gs --q 16 --m 1", "100", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: q = 2^8 = 256 exceeds the enumeration cap 100\n"),
    Row("gs --q 2048 --m 0", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: m must be >= 1, got 0\n"),
    Row("gs --q 32 --m 0", "100", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: m must be >= 1, got 0\n"),
    Row("gs --q 11 --m 30", "100", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: q = 11^2 = 121 exceeds the enumeration cap 100\n"),
    Row("gs --q 6 --m 0", "100", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: q = 6 is not a prime power\n"),
    Row("gs --q 2**7200 --m 1", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: q = 2^14400 exceeds the enumeration cap 1048576\n"),
    Row("gs --q 6 --m 100", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: q = 6 is not a prime power\n"),
    Row("gs --q 1000 --m 3", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: q = 1000 is not a prime power\n"),
    Row("gs --q 1 --m 100000", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: q = 1 is not a prime power\n"),
    Row("gs --q 2048 --m 30", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: q = 2^22 = 4194304 exceeds the enumeration cap 1048576\n"),
    Row("gs --q -3 --m 2", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: q = -3 is not a prime power\n"),
    Row("gs --q 2 --m 24 --format text", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: conductor 16773120 exceeds the bitmap cap 10000000\n"),
    Row("gs --q 2 --m 24 --format csv", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: conductor 16773120 exceeds the bitmap cap 10000000\n"),
    Row("gs --q 2 --m 24 --format json", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: conductor 16773120 exceeds the bitmap cap 10000000\n"),
    Row("semigroup --q 4 --m 11 --format json", None, 0, "d64c6b819a39bd927001f095c90544ecd4a22a41624acac029c0633de90be576", ""),
    Row("semigroup --q 3 --m 2", None, 0, "a9c09a4c41bd869c697416d53bc936a1c600eca16b99c605f51be6efae720456", ""),
    Row("semigroup --q 2 --m 12 --format csv", None, 0, "2d4eb373a34c154b80aca4a99222e8f0cd25d6b6a5e8d8dfc4aae70144525434", ""),
    Row("semigroup --q 3 --m 14", None, 0, "6ff37519dd1e1189f9941310cb3996cde4005f925cd2a210c3d56c53f2eac21b", ""),
    Row("semigroup --q 5 --m 10 --format csv", None, 0, "99b01483f9b28e2ba84f50c979c7923e0d8c36ea10cccf8f386196c6654a1507", ""),
    Row("semigroup --q 6 --m 3", None, 0, "e95ed94a8e8a1c7801c1faffbb73d143b8318832a381192e80b968843dd90fa7", ""),
    Row("semigroup --q 2 --m 1 --format json", None, 0, "ee5216eccd8012677a9e835f5b54dc751ece59127464739eb063c5cad915a747", ""),
    Row("semigroup --q 10 --m 4", None, 0, "3563433ef6105d0e36df40fc2010bc3d9e8500b3f85a46e9d7d535e166663deb", ""),
    Row("semigroup --q 1000 --m 2 --format json", None, 0, "669cd3ee192af15e0b0127d24bbc8791f34c2cad5f5f896c5663e474e5665b19", ""),
    Row("semigroup --q 31 --m 3 --format csv", None, 0, "abfafb80312f3cb67a93a8c44309a8fa52f3ac3245d87b3a42eceb2672f80273", ""),
    Row("semigroup --q 7 --m 7", None, 0, "ea7703ed2d8e61d25fd4255fd39ca7d668e6a034ef1f91bf64a143afc2e84c02", ""),
    Row("semigroup --q 2 --m 4 --format csv", None, 0, "f10d918413fb189fa2aea93d70d034a13ff51d4888171ed3dbf59cd97408218b", ""),
    Row("semigroup --q 2 --m 22 --format json", None, 0, "8e92e8ac6c240112d434357e7d830f4245cd796bf997c79dfe94755a31e258dc", ""),
    Row("semigroup --q 2 --m 23 --format json", None, 0, "39b5aad121722dd821c1637cffa35624e0a08999100f78131fd199ead745b283", ""),
    Row("semigroup --q 2 --m 23 --format csv", None, 0, "401e7cab77bc7f98f212425da5518795ff27fe7df441794559f784430bf8f59e", ""),
    Row("semigroup --q 7 --m 8", None, 0, "cc007fde7a63bf6c975c6dd5500375f7f8ecf597fd87fbdd05edb306428c2540", ""),
    Row("semigroup --q 2 --m 2 --format json", None, 0, "5404ecca4d750ea639e2a45c802a6758ca683d1f8ddb4ae77eb053bfb1ffcd22", ""),
    Row("semigroup --q 999 --m 2", None, 0, "4fbbc7ecc2a5457687c64531dc2aeebb42805699b3697c80fbd0718dea7bbf94", ""),
    Row("semigroup --q 1001 --m 2 --format csv", None, 0, "922e61e8fc2d34bae0a95321272bc24181b030ba9af1afd338c8af32542c95d3", ""),
    Row("semigroup --q 2 --m 0", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: m must be >= 1, got 0\n"),
    Row("semigroup --q 1 --m 0", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: q must be >= 2, got 1\n"),
    Row("semigroup --q 3 --m 15", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: conductor 14342346 exceeds the bitmap cap 10000000\n"),
    Row("semigroup --q 2 --m 24 --format text", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: conductor 16773120 exceeds the bitmap cap 10000000\n"),
    Row("semigroup --q 2 --m 24 --format csv", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: conductor 16773120 exceeds the bitmap cap 10000000\n"),
    Row("semigroup --q 2 --m 24 --format json", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: conductor 16773120 exceeds the bitmap cap 10000000\n"),
    Row("semigroup --q 2 --m 100000", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: conductor q^m - q^ceil(m/2) at q = 2, m = 100000 exceeds the bitmap cap 10000000\n"),
    Row("semigroup --q 1 --m 100000", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: q must be >= 2, got 1\n"),
    Row("semigroup --q 6 --m 100000", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: conductor q^m - q^ceil(m/2) at q = 6, m = 100000 exceeds the bitmap cap 10000000\n"),
    Row("semigroup --q 1 --m 3 --format text", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: q must be >= 2, got 1\n"),
    Row("semigroup --q 1 --m 3 --format csv", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: q must be >= 2, got 1\n"),
    Row("semigroup --q 1 --m 3 --format json", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: q must be >= 2, got 1\n"),
    Row("bounds --q 9", None, 0, "06e2c0f4acde158f31da88b8dfe2953267bacce7b6fbea788647986d2024b7f2", ""),
    Row("bounds --q 9 --format json", None, 0, "d973369fba72ca93e155e4b6f5036da11fe48d0db1ee8c2f5d53c462078f393a", ""),
    Row("bounds --q 2 --format csv", None, 0, "d72ab642d8e34d76517d1f2d428ea9eccca22984f5220e0bd4711bde980fb55c", ""),
    Row("bounds --q 2 --format json", None, 0, "67bd44c8b28fdce7cbb0011986a167439b8c753a343e4235f6cc1e00118efa4a", ""),
    Row("bounds --q 2", None, 0, "06e605ceefef565f338a6c8b570e3b87e6949df8fc7e11cb1a426e84e7b50f5c", ""),
    Row("bounds --q 3 --format csv", None, 0, "6f6f2b529caaaf737d5b2578f576185c101445c5e46929ae8ed60aaf9e8bb44b", ""),
    Row("bounds --q 3 --format json", None, 0, "fff748cf3344278d440e0ab0a9c21afc47a24fd92c9fb8b4ba6bd5c0b8048572", ""),
    Row("bounds --q 8", None, 0, "75a4267ffbc09cb0ff6a0179cc0ea57de8e14ee8a52e0d65798ed2ce6edd1b2a", ""),
    Row("bounds --q 32 --format json", None, 0, "5a897467248db389bdeafbea4a65b5ed0034d06e983ce277102a54f9183d635a", ""),
    Row("bounds --q 4096 --format csv", None, 0, "c9647fa1b41c5789cafde7042e1d8301b327cc30dff646147478fcaab526611d", ""),
    Row("bounds --q 4", None, 0, "35f2d1ef0374e51a5b89729290887b6b92839c12046787a7a6650f55e4af299c", ""),
    Row("bounds --q 32768 --format json", None, 0, "a54cd11affe45da30c21b677c4a051296754c99297a2a97a0d2a0f38b1096c40", ""),
    Row("bounds --q 1048576 --format csv", None, 0, "2f0a6b9c65114f6e454565bdccf7931234c8c6214a226368d0f6cd753ba839f3", ""),
    Row("bounds --table 100000", None, 0, "e41b7aec8d323256d06bce8497e12df74fc8892ae97068a581a89d6334a83928", ""),
    Row("bounds --table 100000 --format json", None, 0, "e0d03264d3cc1d8b39b5ae789ba122494f1ffa68233d4840344ec2fd5dd27333", ""),
    Row("bounds --table 4096 --format csv", None, 0, "068b82d4c6a5e8ac18a768fdb824fcf6d6fe3710d6348f377eca72e4b3a7a835", ""),
    Row("bounds --table 32 --format csv", None, 0, "7af49d2abcdee5674ee9b56137406d07772375829f05da4a160e19b33d0bc2b4", ""),
    Row("bounds --table 2", None, 0, "0c651d9a2c7b86fe85ef70725f42d59e138bffb29062a2faa9c8673a4a7cee96", ""),
    Row("bounds --table 300000 --format json", None, 0, "fb73d2b1349de76f9588461c3b380ee7b9e8b1f277dff1f0a25668c458c6ce4b", ""),
    Row("bounds --table 65539 --format csv", None, 0, "36408a09ec4f5a11abe92706b0152037a9918ba90b1505b1ee7242a112813193", ""),
    Row("bounds --table 65539 --format json", None, 0, "6a03a2628dd9db29ff77ddc5c7b1adac1890a63142990bced1b632a859cb5e4b", ""),
    Row("bounds --table 257**2 --format csv", None, 0, "33b9b9f641b83e78bf83024499b0bbabd40acea28c9f05c1329160169de98efb", ""),
    Row("bounds --table 257**2 --format json", None, 0, "6bab57facf8eeae77484d391a3d5a09dbb539fa93b2988f10613d57960dde1de", ""),
    Row("bounds --q 6", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: q = 6 is not a prime power\n"),
    Row("bounds --q 1", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: q = 1 is not a prime power\n"),
    Row("bounds --q 0", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: q = 0 is not a prime power\n"),
    Row("bounds --table 1", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: --table expects a limit of at least 2, got 1\n"),
    Row("bounds --table 0", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: --table expects a limit of at least 2, got 0\n"),
    Row("bounds --table -5", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: --table expects a limit of at least 2, got -5\n"),
    Row("bounds --table 10000001", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: --table expects a limit of at most 10000000, got 10000001\n"),
    Row("bounds --table 100000000000000000", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: --table expects a limit of at most 10000000, got 100000000000000000\n"),
    Row("verify all", None, 0, "678f1600ec282489293efafa1c6d90dad932e74c828ecc531ff2d51a9278bbf5", ""),
    Row("verify homma", None, 0, "58126ac2df9d9ea7616a3e8299f344988132dc6a1352f9c2987975cb88fc9bcf", ""),
    Row("verify homma", "9", 0, "58126ac2df9d9ea7616a3e8299f344988132dc6a1352f9c2987975cb88fc9bcf", ""),
    Row("verify homma --format csv", None, 0, "143fe50735411f55f74e16bb6409978e506b08d14c33985a41d1f7f46d41cd43", ""),
    Row("verify homma --format json", None, 0, "40ae360db3d4cf22ea15e5deb85599036a64e7afb80a1a8c13888954d43fa3b5", ""),
    Row("verify gs --format csv", None, 0, "8877ace50244d1bbe8adf770d63185d9e21f6495e0b8f353c945bf0fee5a6f45", ""),
    Row("verify gf --format json", None, 0, "f5bd0e0d1419bfa897756a9e39b05beb0601868b7b2d6015ad4060fcecfbd020", ""),
    Row("verify gs", None, 0, "823df633c5b7cdfb264b33c1663c9e46f5fadb8c763bcb9335da00ef6339d4d3", ""),
    Row("verify gs", "16", 0, "823df633c5b7cdfb264b33c1663c9e46f5fadb8c763bcb9335da00ef6339d4d3", ""),
    Row("verify gs --format json", None, 0, "af9092c91397d6ea8f111e5161c5f0db0a6f60591e64e18c35ca44480de9d133", ""),
    Row("verify semigroup", None, 0, "4904cb991ee8cadbfbf0d99103728e257a8efa6c90c79a9fdece10e5b6d2c246", ""),
    Row("verify semigroup --format csv", None, 0, "2ec2cb19fdc268674779be2192b5a4338aea3d77cbf2ae337010953b3895d605", ""),
    Row("verify semigroup --format json", None, 0, "403829b69c7e79b14cd85926a628dd992e8ae01aac5c9d264a7ce36540280da7", ""),
    Row("verify bounds", None, 0, "2e1fe68227d9d1fab5e02cd0e99743dab5af0cd088038afb8903229c25f96138", ""),
    Row("verify bounds --format csv", None, 0, "f705d0db80e9ffb55b584a46d3d9bdf5b7374b77925ed2d73f71a0ee52239129", ""),
    Row("verify bounds --format json", None, 0, "20528296bdfeabd23de352ce5031d319a09d7dfadfa9e8c86631a86654881857", ""),
    Row("verify --format json homma", None, 0, "40ae360db3d4cf22ea15e5deb85599036a64e7afb80a1a8c13888954d43fa3b5", ""),
    Row("verify bounds --n-max 2", None, 1, "49d933bb81ac9626384525f17695d30eebcc81851e06bbad2019666d601735f0", ""),
    Row("verify bounds --n-max 10", None, 1, "6acf77ff8115c572ba8f7b7cde13a9a8a1c45b11c21418505ddb19271f69784f", ""),
    Row("verify bounds --n-max 3 --format text", None, 1, "a2e2e446b0fc69501aa827d5afefa49bf41c3799329fd5743093f0876d20e092", ""),
    Row("verify bounds --n-max 3 --format json", None, 1, "e93527915bc2c23c0412d4a2e7f0bb403933c07ca32101381824cdc6774fee2d", ""),
    Row("verify --n-max 1", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: n_max must be >= 2, got 1\n"),
    Row("verify bounds --n-max 1", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: n_max must be >= 2, got 1\n"),
    Row("verify gf --n-max 0", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: n_max must be >= 2, got 0\n"),
    Row("verify bounds --n-max 4001", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: n_max must be <= 4000, got 4001\n"),
    Row("verify everything --n-max 4001", None, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "usage: rpl verify [-h] [--n-max N_MAX] [--format {json,csv,text}] [--out PATH]\n                  [{all,gf,homma,gs,semigroup,bounds}]\nrpl verify: error: argument scope: invalid choice: 'everything' (choose from 'all', 'gf', 'homma', 'gs', 'semigroup', 'bounds')\n"),
)
ROWS_BY_KEY = {(entry.line, entry.cap): entry for entry in ROWS}


# README's "Input limits" table: each command's rules in the order checked, as README words them.
# Each rule names a piece of its message and the key of a row that breaks it and no earlier rule,
# then the key of a row that breaks it and the next rule too, or None where the two cannot both
# break (a q over the field cap is > 2; at ell < 2 or m < 1 there is no degree or conductor).
Rule = namedtuple("Rule", "words message breaks breaks_next")
RULES = {
    "points-homma": (
        Rule("q a prime power", "is not a prime power", ("points-homma --q 6 --ell 2",),
             ("points-homma --q 1000 --ell 1", "100")),
        Rule("q <= field cap", "exceeds the enumeration cap", ("points-homma --q 2097152 --ell 2",),
             None),
        Rule("q > 2", "the curve family needs q > 2", ("points-homma --q 2 --ell 3",),
             ("points-homma --q 2 --ell 1",)),
        Rule("ell >= 2", "ell must be >= 2", ("points-homma --q 3 --ell 1",), None),
        Rule("the degree (q-1)^(ell-1) and the total print in 4300 digits", "can be printed",
             ("points-homma --q 3 --ell 14286",), None),
    ),
    "gs": (
        Rule("q a prime power", "is not a prime power", ("gs --q 6 --m 2",),
             ("gs --q 6 --m 0", "100")),
        Rule("m >= 1", "m must be >= 1", ("gs --q 4 --m 0",), ("gs --q 2048 --m 0",)),
        Rule("q^2 <= field cap", "exceeds the enumeration cap", ("gs --q 2048 --m 1",),
             ("gs --q 2048 --m 30",)),
        Rule("conductor c_m <= 10^7", "exceeds the bitmap cap", ("gs --q 2 --m 24 --format text",),
             None),
    ),
    "semigroup": (
        Rule("q >= 2", "q must be >= 2", ("semigroup --q 1 --m 3 --format text",),
             ("semigroup --q 1 --m 0",)),
        Rule("m >= 1", "m must be >= 1", ("semigroup --q 2 --m 0",), None),
        Rule("conductor c_m <= 10^7", "exceeds the bitmap cap", ("semigroup --q 3 --m 15",), None),
    ),
    "bounds --q": (
        Rule("q a prime power", "is not a prime power", ("bounds --q 6",), None),
    ),
    "bounds --table": (
        Rule("2 <= QMAX <= 10^7", "--table expects a limit", ("bounds --table 1",), None),
    ),
    "verify": (
        Rule("scope in `all`, `gf`, `homma`, `gs`, `semigroup`, `bounds` (argparse)",
             "invalid choice", ("verify everything",), ("verify everything --n-max 4001",)),
        Rule("N_MAX <= 4000", "n_max must be <= 4000", ("verify bounds --n-max 4001",), None),
        Rule("N_MAX >= 2", "n_max must be >= 2", ("verify --n-max 1",), None),
    ),
}
