"""Checks on the package source itself."""

import ast
import inspect
import re
from collections import Counter
from pathlib import Path

import pytest

import parity

SLOW_IMPORTS = {"dataclasses", "typing"}
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rpl"
SOURCES = sorted(PACKAGE.rglob("*.py"))
TESTS = Path(__file__).resolve().parent


def _name(path):
    """A source's path under rpl: gf.py, verify/gf.py."""
    return path.relative_to(PACKAGE).as_posix()


VERIFY = [path for path in SOURCES if _name(path).startswith("verify/")]


def test_sources_found():
    assert {_name(path) for path in SOURCES} >= {
        "__init__.py", "gf.py", "verify/__init__.py", "verify/gf.py", "verify/homma.py",
        "verify/gs.py", "verify/semigroup.py", "verify/bounds.py"}


@pytest.mark.parametrize("path", SOURCES, ids=_name)
def test_no_assert_statements(path):
    # python -O drops assert statements, so a check written as one would
    # silently stop running; raise a typed error instead
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{_name(path)}: assert at line(s) {lines}"


def test_verify_forms_every_verdict_in_run():
    # a check returns its name and failures; only _run turns them into a
    # CheckResult, so scope, PASS/FAIL and detail follow one rule, in every scope
    def calls(path, node):
        return {
            (_name(path), call.lineno) for call in ast.walk(node)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "CheckResult"
        }

    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in VERIFY}
    init = PACKAGE / "verify/__init__.py"
    [run] = [node for node in trees[init].body
             if isinstance(node, ast.FunctionDef) and node.name == "_run"]
    assert calls(init, run), "_run builds no CheckResult"
    stray = sorted(set().union(*map(calls, trees, trees.values())) - calls(init, run))
    assert not stray, f"CheckResult built outside verify._run at {stray}"


def _names(node):
    """Names that an exception expression refers to: ValueError, (A, B), errors.X."""
    return {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}


@pytest.mark.parametrize("path", SOURCES, ids=_name)
def test_no_bare_value_error_raises(path):
    # every input rule raises a ValidationError (also a ValueError), so
    # rejected input takes one path through cli.main
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        and "ValueError" in _names(getattr(node.exc, "func", node.exc))
    ]
    assert not lines, f"{_name(path)}: raise ValueError at line(s) {lines}"


def test_one_type_for_rejected_input():
    # every input rule raises ValidationError itself and its message states
    # the rule; a subclass per rule would be a second name no caller reads
    subclasses = [
        f"{_name(path)}: {node.name}" for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)
        and "ValidationError" in set().union(*map(_names, node.bases))
    ]
    assert not subclasses, f"ValidationError subclasses: {subclasses}"


def test_only_the_cli_reads_the_environment():
    # resource caps belong to the commands: a closed form or a verify check
    # that read a variable would print what the caller's environment says
    readers = [
        f"{_name(path)}:{node.lineno}" for path in SOURCES if _name(path) != "cli.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "environb", "getenv")
    ]
    assert not readers, f"environment read outside cli.py at {readers}"


COMMAND_CAPS = {"CONDUCTOR_CAP", "TABLE_CAP", "N_MAX_CAP", "field_cap", "FIELD_CAP_ENV",
                "DEFAULT_FIELD_CAP"}


def test_command_caps_live_in_the_cli():
    # what a command refuses for cost is the command's rule: a closed form or a
    # verify check that defined or read a cap would answer by a command's budget
    users = [
        f"{_name(path)}:{node.lineno} {name}" for path in SOURCES if _name(path) != "cli.py"
        for node in ast.walk(ast.parse(path.read_text()))
        for name in ({node.name} if isinstance(node, (ast.FunctionDef, ast.alias))
                     else {getattr(node, "id", getattr(node, "attr", None))}) & COMMAND_CAPS
    ]
    assert not users, f"a command cap named outside cli.py at {users}"


def test_cli_main_does_not_catch_value_error():
    # a ValueError escaping a handler is a bug: it must surface as a
    # traceback with exit 1, not be reported as rejected input; cli.main
    # hands its table to entry.main, which calls the handler
    path = PACKAGE / "entry.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    [main] = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main"]
    handlers = [node for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)]
    assert handlers, "entry.main has no except clause"
    lines = [node.lineno for node in handlers
             if node.type is None or "ValueError" in _names(node.type)]
    assert not lines, f"entry.py: main catches ValueError at line(s) {lines}"


def test_cli_handlers_have_no_try():
    # a handler names the first rule broken by checking its rules in order; a try that
    # checks again on the way out is a second, rejection-only path through the rules
    path = PACKAGE / "cli.py"
    handlers = [node for node in ast.parse(path.read_text(), filename=str(path)).body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    assert handlers, "cli.py has no _cmd_ function"
    tries = [f"{node.name}:{inner.lineno}" for node in handlers for inner in ast.walk(node)
             if isinstance(inner, (ast.Try, getattr(ast, "TryStar", ast.Try)))]
    assert not tries, f"cli.py: try in a command handler at {tries}"


@pytest.mark.parametrize("path", SOURCES, ids=_name)
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
    assert not lines, f"{_name(path)}: dataclasses or typing import at line(s) {lines}"


def _imported_modules(node, path):
    """Dotted modules an import statement in path names, a relative one resolved from path."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if isinstance(node, ast.ImportFrom):
        package = ["rpl", *path.relative_to(PACKAGE).parent.parts]
        base = ".".join(filter(None, (*package[:len(package) + 1 - node.level], node.module))
                        if node.level else (node.module,))
        return {base} | {f"{base}.{alias.name}" for alias in node.names}
    return set()


# every command loads entry, and each public name it defines is one that cli reads
PRODUCTION = ("__init__.py", "errors.py", "cli.py", "entry.py", "primes.py", "homma_family.py",
              "gs_tower.py", "semigroup.py", "bounds.py", "streams.py")
COMPUTING = ("errors", "entry", "primes", "homma_family", "gs_tower", "semigroup", "bounds",
             "streams")


def _public_names(tree):
    """Names a module defines at top level, by def, class or assignment, without a leading _."""
    names = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    names |= {target.id for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets if isinstance(target, ast.Name)}
    return {name for name in names if not name.startswith("_")}


def _top_modules(node, path):
    """rpl.x for each module rpl.x or rpl.x.y that an import statement in path names."""
    return {".".join(module.split(".")[:2]) for module in _imported_modules(node, path)}


def test_production_holds_only_what_is_read():
    # production computes answers; a name only a check or a test reads is a
    # reference, and it lives in rpl.verify (or rpl.gf, which only verify builds).
    # Every module but those is production, so no command loads rpl.gf, not even lazily
    assert {_name(path) for path in SOURCES if path not in VERIFY} == {*PRODUCTION, "gf.py"}
    trees = {name: ast.parse((PACKAGE / name).read_text()) for name in PRODUCTION}
    [verify_cmd] = [node for node in trees["cli.py"].body
                    if isinstance(node, ast.FunctionDef) and node.name == "_cmd_verify"]
    in_verify_cmd = {id(node) for node in ast.walk(verify_cmd)}
    crossings = [
        f"{name}:{node.lineno}" for name, tree in trees.items() for node in ast.walk(tree)
        if "rpl.gf" in (tops := _top_modules(node, PACKAGE / name))
        or "rpl.verify" in tops and id(node) not in in_verify_cmd
    ]
    assert not crossings, f"production imports rpl.verify or rpl.gf at {crossings}"
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    reads = {node.name for node in nodes if isinstance(node, ast.alias)}  # imported names
    reads |= {getattr(node, "id", getattr(node, "attr", None)) for node in nodes
              if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    readme = (PACKAGE.parent.parent / "README.md").read_text()
    library = re.search(r"## Library\n+```python\n(.*?)```", readme, re.S).group(1)
    shown = set(re.findall(rf"\b(?:{'|'.join(COMPUTING)})\.(\w+)", library))
    unread = [f"{module}.{name}" for module in COMPUTING
              for name in sorted(_public_names(trees[f"{module}.py"]) - reads - shown)]
    assert not unread, f"production names no command, module or README example reads: {unread}"


def test_no_module_imports_the_cli():
    # `python -m rpl.cli` runs the CLI as __main__, so a module that imported
    # rpl.cli would compile and run all of cli.py a second time
    importers = [
        f"{_name(path)}:{node.lineno}" for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if "rpl.cli" in _top_modules(node, path)
    ]
    assert not importers, f"rpl.cli imported at {importers}"


def test_entry_points_outside_src_hold():
    # the console script runs rpl.cli:run, perfbench's shim calls rpl.cli.main(argv), and
    # perfbench/run.py refuses a checkout without src/rpl/cli.py: a split keeps all three
    pyproject = (PACKAGE.parent.parent / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    assert scripts and scripts.group(1).strip() == 'rpl = "rpl.cli:run"'
    from rpl import cli
    assert list(inspect.signature(cli.main).parameters) == ["argv"]
    assert not inspect.signature(cli.run).parameters
    assert (PACKAGE / "cli.py").is_file()


# Without cached bytecode a command compiles every module it loads, and the memory of one
# compilation is reused by the next, so its peak RSS is set by the largest: compiling a module
# of 2,473 nodes (cli.py before rpl.entry left it) raised a fresh interpreter's peak by about
# 1,140 KiB, and one of 1,330 nodes (entry.py) by about 650 KiB (README's Start-up section).
# gf.py (2,245 nodes) and the verify scopes (up to 2,080) are exempt: only verify compiles
# them, and verify all's peak is what its scopes leave behind
NODE_BUDGET = 1350


@pytest.mark.parametrize("name", PRODUCTION)
def test_production_modules_fit_the_node_budget(name):
    nodes = sum(1 for _ in ast.walk(ast.parse((PACKAGE / name).read_text())))
    assert nodes <= NODE_BUDGET, f"{name}: {nodes} AST nodes"


def test_verify_imports_no_private_field_name():
    # the product g*v that certifies the exp table is gf.times_generator,
    # the one the build uses; a private gf helper would let verify write it again
    private = [
        f"{_name(path)}: {alias.name}" for path in VERIFY
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and "rpl.gf" in _imported_modules(node, path)
        for alias in node.names if alias.name.startswith("_")
    ]
    assert not private, f"verify imports private rpl.gf names: {private}"


def test_field_methods_do_not_read_the_degree():
    # a field binds its arithmetic in __init__; a method that reads self.e
    # could choose it again on every call
    path = PACKAGE / "gf.py"
    [cls] = [node for node in ast.parse(path.read_text()).body
             if isinstance(node, ast.ClassDef) and node.name == "FieldContext"]
    readers = [
        f"{method.name}:{node.lineno}" for method in cls.body
        if isinstance(method, ast.FunctionDef) and method.name != "__init__"
        for node in ast.walk(method) if isinstance(node, ast.Attribute) and node.attr == "e"
        and getattr(node.value, "id", None) == "self"
    ]
    assert not readers, f"FieldContext methods read self.e: {readers}"


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


def test_one_print_guard():
    # "is this power printable" is decided in rpl.printable_power alone; a
    # module that reads the limit's bit length, or a bit-length switch of its
    # own, writes that rule a second time
    readers = [
        f"{_name(path)}:{node.lineno}" for path in SOURCES if _name(path) != "__init__.py"
        for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "bit_length"
        and "PRINT_LIMIT" in _names(node.func.value)
    ]
    assert not readers, f"PRINT_LIMIT.bit_length() read outside rpl/__init__.py at {readers}"
    switches = [_name(path) for path in SOURCES if re.search(r"\b14280\b", path.read_text())]
    assert not switches, f"the 14280-bit switch is back in {switches}"


def test_only_make_field_proves_a_prime():
    # a command's p comes from factor_prime_power, which has proved it prime;
    # only gf.make_field is handed an unfactored (p, e)
    callers = {
        f"{_name(path)}::{func.name}" for path in SOURCES
        for func in ast.walk(ast.parse(path.read_text())) if isinstance(func, ast.FunctionDef)
        for call in ast.walk(func) if isinstance(call, ast.Call)
        and "is_prime" in {getattr(call.func, "id", None), getattr(call.func, "attr", None)}
    }
    assert callers == {"gf.py::make_field"}, f"is_prime called by {sorted(callers)}"


def test_only_run_freezes_and_nothing_skips_finalization():
    # gc.freeze() in main() would leave every in-process caller's objects frozen;
    # os._exit would skip atexit handlers and the final flush of stdout and stderr
    calls = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        owner = {node: func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                 for node in ast.walk(func)}  # walked outer first, so the innermost function wins
        calls += [(f"{_name(path)}::{owner.get(call, '<module>')}", name)
                  for call in ast.walk(tree) if isinstance(call, ast.Call)
                  and (name := getattr(call.func, "attr", getattr(call.func, "id", None)))
                  in ("freeze", "_exit")]
    assert calls == [("entry.py::run", "freeze")], f"freeze and _exit called at {calls}"
