"""Checks on the package source itself."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import parity

SLOW_IMPORTS = {"dataclasses", "typing"}
SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "rpl").glob("*.py"))
TESTS = Path(__file__).resolve().parent


def test_sources_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "gf.py", "verify.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    # python -O drops assert statements, so a check written as one would
    # silently stop running; raise a typed error instead
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at line(s) {lines}"


def test_verify_forms_every_verdict_in_run():
    # a check returns its name and failures; only _run turns them into a
    # CheckResult, so scope, PASS/FAIL and detail follow one rule
    path = next(path for path in SOURCES if path.name == "verify.py")
    tree = ast.parse(path.read_text(), filename=str(path))

    def calls(node):
        return {
            call.lineno for call in ast.walk(node)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "CheckResult"
        }

    [run] = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_run"]
    assert calls(run), "_run builds no CheckResult"
    stray = sorted(calls(tree) - calls(run))
    assert not stray, f"verify.py: CheckResult built outside _run at line(s) {stray}"


def _names(node):
    """Names that an exception expression refers to: ValueError, (A, B), errors.X."""
    return {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_bare_value_error_raises(path):
    # every input rule raises a ValidationError (also a ValueError), so
    # rejected input takes one path through cli.main
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        and "ValueError" in _names(getattr(node.exc, "func", node.exc))
    ]
    assert not lines, f"{path.name}: raise ValueError at line(s) {lines}"


def test_cli_main_does_not_catch_value_error():
    # a ValueError escaping a handler is a bug: it must surface as a
    # traceback with exit 1, not be reported as rejected input
    path = next(path for path in SOURCES if path.name == "cli.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    [main] = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main"]
    handlers = [node for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)]
    assert handlers, "cli.main has no except clause"
    lines = [node.lineno for node in handlers
             if node.type is None or "ValueError" in _names(node.type)]
    assert not lines, f"cli.py: main catches ValueError at line(s) {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_dataclasses_or_typing_imports(path):
    # each costs every command milliseconds of start-up: dataclasses pulls in
    # inspect and ast; collections.namedtuple and collections.abc do the job
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(
            alias.name.split(".")[0] in SLOW_IMPORTS for alias in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in SLOW_IMPORTS
    ]
    assert not lines, f"{path.name}: dataclasses or typing import at line(s) {lines}"


def _imported_modules(node):
    """Dotted modules an import statement names; a relative one is under rpl."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if isinstance(node, ast.ImportFrom):
        base = ".".join(filter(None, ("rpl" if node.level else "", node.module)))
        return {base} | {f"{base}.{alias.name}" for alias in node.names}
    return set()


def test_only_verify_imports_the_field():
    # no command loads rpl.gf, not even lazily: only verify builds fields
    importers = [
        path.name for path in SOURCES
        if any("rpl.gf" in _imported_modules(node) for node in ast.walk(ast.parse(path.read_text())))
    ]
    assert importers == ["verify.py"], f"rpl.gf imported by {importers}"


def test_digests_live_in_the_parity_corpus():
    # a re-pin regenerates one table; a digest written anywhere else in
    # tests/ would be left behind
    holders = [path.name for path in sorted(TESTS.rglob("*.py"))
               if path.name != "parity.py" and re.search(r"[0-9a-fA-F]{64}", path.read_text())]
    assert not holders, f"64-hex-digit literals outside tests/parity.py: {holders}"


def test_one_runner_for_the_parity_corpus():
    # a second function that runs rows would check the same bytes twice
    runners = [
        f"{path.name}::{node.name}" for path in sorted(TESTS.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.FunctionDef)
        and any(isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "run"
                and getattr(call.func.value, "id", None) == "parity"
                or path.name == "parity.py" and getattr(call, "func", None)
                and getattr(call.func, "id", None) == "run" for call in ast.walk(node))
    ]
    assert runners == ["parity.py::check_row"], f"functions that run a parity row: {runners}"


def test_parity_keys_are_unique():
    # ROWS_BY_KEY keeps the last of two equal keys, so parity.row() would read the wrong one
    counts = Counter((row.line, row.cap) for row in parity.ROWS)
    assert max(counts.values()) == 1, [key for key, count in counts.items() if count > 1]
