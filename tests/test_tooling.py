"""Source guards: certificates must not depend on `assert` statements,
which `python -O` strips, nor on `raise AssertionError`, which the CLI
cannot map to an exit code.  Every certificate runs in a fresh interpreter,
so the runtime keeps clear of `dataclasses`, the modules it pulls in, and
`typing`: their import, and the methods `dataclass` generates and compiles
at every start, would be paid on every run.  The runtime defines nothing
that neither it nor the tests use, and reads no environment variable.
Qd(p) keeps no table with one entry per group element."""

import ast
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import qdp
from qdp.groups import construct_qdp

SRC = Path(qdp.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

COVERED = ["steenrod.py", "fixrank.py", "groups.py", "reports.py", "cli.py", "errors.py",
           "characters.py", "dimfun.py"]


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


@pytest.mark.parametrize("name", COVERED)
def test_no_assert_statements(name):
    tree = ast.parse((SRC / name).read_text(), filename=name)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{name} has assert statements at lines {lines}"


@pytest.mark.parametrize("name", COVERED)
def test_no_raise_assertion_error(name):
    tree = ast.parse((SRC / name).read_text(), filename=name)
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and _raises_assertion_error(node)]
    assert lines == [], f"{name} raises AssertionError at lines {lines}"


def test_every_module_is_listed():
    modules = {p.name for p in SRC.glob("*.py")} - {"__init__.py"}
    assert modules == set(COVERED)


@pytest.mark.parametrize("name", COVERED)
def test_no_dataclasses_import(name):
    tree = ast.parse((SRC / name).read_text(), filename=name)
    lines = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
             or (isinstance(node, ast.Import)
                 and any(alias.name == "dataclasses" for alias in node.names))]
    assert lines == [], f"{name} imports dataclasses at lines {lines}"


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


@pytest.mark.parametrize("name", COVERED)
def test_no_environment_reads(name):
    # a report records its argv, which names its input files, but not the
    # environment: a certificate must be a function of what it records
    tree = ast.parse((SRC / name).read_text(), filename=name)
    lines = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT)
             or (isinstance(node, ast.ImportFrom) and node.module == "os"
                 and any(alias.name in ENVIRONMENT for alias in node.names))]
    assert lines == [], f"{name} reads the environment at lines {lines}"


def test_runtime_import_leaves_out_dataclasses():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = ("import sys, qdp.cli, qdp.dimfun, qdp.characters, qdp.fixrank; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', "
            "'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _used_names(paths) -> set[str]:
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update((node.name, node.asname))
    return names


def test_every_definition_is_used():
    # argparse itself calls the `error` hook of `cli._Parser`
    exempt = {("cli.py", "error")}
    used = _used_names(list(SRC.glob("*.py")) + list(TESTS.glob("*.py")))
    unused = [f"{name}:{node.lineno} {node.name}" for name in COVERED
              for node in ast.walk(ast.parse((SRC / name).read_text(), filename=name))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and (name, node.name) not in exempt and node.name not in used]
    assert unused == [], f"defined but never referenced: {unused}"


def test_qdp_set_up_allocates_less_than_the_group():
    # |Qd(31)| = 28,599,360: a table with an entry per element takes ~900 MB
    tracemalloc.start()
    try:
        G = construct_qdp(31, max_order=10 ** 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.order == 28599360
    assert peak < 32 * 2 ** 20, f"construct_qdp(31) peaked at {peak / 2 ** 20:.1f} MB"
