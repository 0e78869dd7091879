"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

SLOW_IMPORTS = {"dataclasses", "typing"}
SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "rpl").glob("*.py"))


def test_sources_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "gf.py", "verify.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    # python -O drops assert statements, so a check written as one would
    # silently stop running; raise a typed error instead
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at line(s) {lines}"


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
